package distnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"scalegnn/internal/fault"
)

// logEntry is one round's encoded rows frame for one peer, retained for
// replay until its epoch ages out of the retention window.
type logEntry struct {
	seq   uint64
	epoch int64
	buf   []byte
}

// link is one established connection to a peer: the socket, and the
// highest round seq written to it. sent starts at the cursor the peer's
// hello carried minus one, so the sender streams exactly the rounds the
// peer has not consumed. A link is never reset; a reconnect is a new link.
type link struct {
	conn net.Conn
	sent uint64
}

// peer is the state machine for one remote shard: the live link (if any),
// the send log, the per-round inbox, and the stale cache. One sender
// goroutine owns all post-handshake writes; exactly one reader runs per
// connection, and it is the reader that closes it — a link displaced by a
// newer one is only unhooked, so the frames its peer wrote before dialling
// again are still delivered.
type peer struct {
	c  *Cluster
	id int

	mu       sync.Mutex
	link     *link  // assigned by install and lose only
	hadConn  bool   // a link has been installed at least once
	maxSent  uint64 // highest seq ever transmitted (replay accounting)
	log      []logEntry
	inbox    map[uint64]*rowsMsg
	consumed uint64 // highest round seq consumed from this peer
	cache    map[string]*rowsMsg

	wake       chan struct{} // sender kick
	note       chan struct{} // waiter kick (inbox insert)
	senderDone chan struct{} // closed when sendLoop exits (after its final drain)
}

func newPeer(c *Cluster, id int) *peer {
	return &peer{
		c:          c,
		id:         id,
		inbox:      make(map[uint64]*rowsMsg),
		cache:      make(map[string]*rowsMsg),
		wake:       make(chan struct{}, 1),
		note:       make(chan struct{}, 1),
		senderDone: make(chan struct{}),
	}
}

// kick makes a non-blocking wakeup signal on a capacity-1 channel.
func kick(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// install makes l the peer's live link. A previous link gets no more writes
// but is not closed: its reader runs on to EOF (or its FailAfter deadline).
func (p *peer) install(l *link) {
	p.mu.Lock()
	p.link = l
	if p.hadConn {
		p.c.stats.reconnects.Add(1)
		reconnectsC.Add(1)
	}
	p.hadConn = true
	p.mu.Unlock()
	kick(p.wake)
}

// lose unhooks l if it is still the live link. It does not close the
// connection: unread rounds may sit behind a failed write, and l's reader
// closes it once they are drained.
func (p *peer) lose(l *link) {
	p.mu.Lock()
	if p.link == l {
		p.link = nil
	}
	p.mu.Unlock()
}

// consume moves the cursor to seq and drops the buffered rounds at or below
// it. The caller holds p.mu.
func (p *peer) consume(seq uint64) {
	p.consumed = seq
	for s := range p.inbox {
		if s <= seq {
			delete(p.inbox, s)
		}
	}
}

// enqueue appends one round's encoded frame to the send log and prunes
// entries older than the retention window.
func (p *peer) enqueue(seq uint64, epoch int64, buf []byte) {
	p.mu.Lock()
	p.log = append(p.log, logEntry{seq: seq, epoch: epoch, buf: buf})
	floor := epoch - int64(p.c.cfg.RetainEpochs)
	cut := 0
	for cut < len(p.log) && p.log[cut].epoch < floor {
		cut++
	}
	if cut > 0 {
		p.log = append(p.log[:0:0], p.log[cut:]...)
	}
	p.mu.Unlock()
	kick(p.wake)
}

// sendLoop is the peer's single writer: it streams every log entry the
// live link has not carried yet, and heartbeats on idle ticks so the remote
// failure detector sees a live connection.
func (p *peer) sendLoop() {
	defer p.c.wg.Done()
	defer close(p.senderDone)
	hb := time.NewTicker(p.c.cfg.HeartbeatEvery)
	defer hb.Stop()
	heartbeat := encodeFrame(typeHeartbeat, p.c.cfg.Shard, nil)
	for {
		beat := false
		select {
		case <-p.wake:
		case <-hb.C:
			beat = true
		case <-p.c.done:
			// Final drain: a round enqueued just before Close (the last
			// round of a run) must still reach the peer, which may be one
			// frame behind us. The write deadline bounds the attempt.
			p.flush()
			return
		}
		l := p.flush()
		if beat && l != nil {
			if err := writeFrame(l.conn, writeTimeout, heartbeat); err != nil {
				p.lose(l)
			}
		}
	}
}

// flush writes everything currently sendable, looping until the log is
// drained or the link dies. It returns the live link (nil if down) for the
// caller's heartbeat. Frames are staged under the lock and written outside
// it, so a slow write never blocks the read loop's routing.
func (p *peer) flush() *link {
	for {
		p.mu.Lock()
		l := p.link
		var bufs [][]byte
		replayed := int64(0)
		if l != nil {
			for _, e := range p.log {
				if e.seq > l.sent {
					bufs = append(bufs, e.buf)
					l.sent = e.seq
					if e.seq <= p.maxSent {
						replayed++
					} else {
						p.maxSent = e.seq
					}
				}
			}
		}
		p.mu.Unlock()
		if replayed > 0 {
			p.c.stats.replays.Add(replayed)
			replaysC.Add(replayed)
		}
		if len(bufs) == 0 {
			return l
		}
		for _, b := range bufs {
			if err := writeFrame(l.conn, writeTimeout, b); err != nil {
				p.lose(l)
				return nil
			}
		}
	}
}

// readLoop consumes frames from l until it dies: heartbeats refresh the
// failure detector implicitly (the next read re-arms the deadline), and
// rows land in the inbox and stale cache — also when l is no longer the
// live link. Any corruption ends the connection — replay re-delivers.
func (p *peer) readLoop(l *link) {
	for {
		f, err := readFrame(l.conn, p.c.cfg.FailAfter)
		if err != nil {
			if errors.Is(err, errCorrupt) || errors.Is(err, fault.ErrPartial) {
				p.c.stats.framesCorrupt.Add(1)
				framesCorruptC.Add(1)
			}
			return
		}
		if f.typ != typeRows {
			continue // heartbeat: liveness only, the deadline was re-armed
		}
		m, err := decodeRows(f)
		if err != nil {
			p.c.stats.framesCorrupt.Add(1)
			framesCorruptC.Add(1)
			return
		}
		p.mu.Lock()
		if m.seq > p.consumed && len(p.inbox) < maxInbox {
			p.inbox[m.seq] = m
		}
		// Even a duplicate or late round refreshes the stale cache:
		// newest epoch per site wins.
		if cur := p.cache[m.site]; cur == nil || m.epoch >= cur.epoch {
			p.cache[m.site] = m
		}
		p.mu.Unlock()
		kick(p.note)
	}
}

// await blocks until the peer's rows for round seq arrive (fresh), the
// stale cache can stand in for them (stale), or the round fails. It reports
// how long it waited for the round span's wait attribution.
func (p *peer) await(seq uint64, site string, epoch int64, deadline, staleAt time.Time) (msg *rowsMsg, stale bool, waited time.Duration, err error) {
	start := time.Now()
	for {
		p.mu.Lock()
		if m, ok := p.inbox[seq]; ok {
			p.consume(seq)
			p.mu.Unlock()
			return m, false, time.Since(start), nil
		}
		var sub *rowsMsg
		if !staleAt.IsZero() && time.Now().After(staleAt) {
			if cm := p.cache[site]; cm != nil && epoch-cm.epoch <= int64(p.c.cfg.MaxStaleness) {
				sub = cm
				p.consume(seq)
			}
		}
		p.mu.Unlock()
		if sub != nil {
			return sub, true, time.Since(start), nil
		}
		if time.Now().After(deadline) {
			why := "no rows within the peer timeout"
			if p.c.cfg.MaxStaleness > 0 {
				why = fmt.Sprintf("max staleness exceeded: no rows within the peer timeout and no cached rows within %d epochs", p.c.cfg.MaxStaleness)
			}
			return nil, false, time.Since(start), &RoundError{Site: site, Seq: seq, Peer: p.id, Why: why}
		}
		select {
		case <-p.note:
		case <-time.After(25 * time.Millisecond):
		case <-p.c.ctxDone():
			return nil, false, time.Since(start), &RoundError{Site: site, Seq: seq, Peer: p.id, Why: "exchange cancelled", Err: p.c.ctxErr()}
		case <-p.c.done:
			return nil, false, time.Since(start), &RoundError{Site: site, Seq: seq, Peer: p.id, Why: "cluster closed"}
		}
	}
}

// dialLoop maintains the outbound connection to a lower-numbered shard:
// dial and run the connection until it dies; when none came up, back off
// exponentially (bounded) before the next attempt, until the cluster closes.
//
// Failpoint "distnet.dial" is evaluated before every attempt; any injected
// error counts as a failed dial.
func (p *peer) dialLoop() {
	defer p.c.wg.Done()
	backoff := dialBackoff
	for {
		select {
		case <-p.c.done:
			return
		default:
		}
		if err := p.dialOnce(); err != nil {
			p.c.stats.dialRetries.Add(1)
			dialRetriesC.Add(1)
			select {
			case <-p.c.done:
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
			continue
		}
		backoff = dialBackoff
	}
}

// dialOnce dials the peer and runs the connection; it returns an error if
// no link came up, and nil once one has lived and died.
func (p *peer) dialOnce() error {
	if err := fault.Inject("distnet.dial"); err != nil {
		return err
	}
	network, address := splitAddr(p.c.cfg.Addrs[p.id])
	conn, err := net.DialTimeout(network, address, p.c.cfg.FailAfter)
	if err != nil {
		return err
	}
	return p.c.connect(conn, p)
}

// connect is the life of one connection: exchange hellos, install the link
// on its peer, read it until it fails, unhook it, close it. The dialer
// names its peer and speaks first; the acceptor passes nil and learns the
// peer from the hello, because the cursor it answers with is that peer's. A
// hello from another run, another cluster shape, or a shard that has no
// business on this end of the connection is rejected — it must not exchange
// rows with us — and keeps being rejected until the operator fixes the
// mismatch. The error is non-nil when no link came up.
func (c *Cluster) connect(conn net.Conn, p *peer) error {
	defer func() { _ = conn.Close() }()
	hello := func(p *peer) error {
		p.mu.Lock()
		want := p.consumed + 1 // the first round we still need from p
		p.mu.Unlock()
		return writeFrame(conn, writeTimeout, encodeHello(c.cfg.Shard, c.cfg.N, c.cfg.Fingerprint, want))
	}
	if p != nil {
		if err := hello(p); err != nil {
			return err
		}
	}
	f, err := readFrame(conn, c.cfg.FailAfter)
	if err != nil {
		return err
	}
	n, fp, want, err := decodeHello(f)
	expected := f.from > c.cfg.Shard && f.from < c.cfg.N // inbound: a shard that dials us
	if p != nil {
		expected = f.from == p.id
	}
	if err != nil || n != c.cfg.N || fp != c.cfg.Fingerprint || !expected {
		c.stats.framesCorrupt.Add(1)
		framesCorruptC.Add(1)
		return fmt.Errorf("%w: hello from shard %d rejected", errCorrupt, f.from)
	}
	if p == nil {
		p = c.peer[f.from]
		if err := hello(p); err != nil {
			return err
		}
	}
	if !c.track(conn) {
		return nil
	}
	defer c.untrack(conn)
	l := &link{conn: conn, sent: want - 1}
	p.install(l)
	p.readLoop(l)
	p.lose(l)
	return nil
}
