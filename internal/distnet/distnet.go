// Package distnet is the multi-process distributed training runtime: a
// length-prefixed, CRC-framed boundary-exchange protocol over TCP or unix
// sockets with per-message deadlines, heartbeat-based failure detection,
// bounded exponential-backoff reconnect, and replay-based recovery.
//
// N shards (one process each) form a full mesh — the higher-numbered shard
// of every pair dials the lower — and advance through a totally ordered
// sequence of exchange rounds. Each round, every shard appends its outgoing
// rows to a per-peer send log and waits for the matching round from every
// peer. The cursor rides in the handshake: each side's hello names the
// first round it still needs, and the other side streams its log from
// there. So a process that was SIGKILLed and resumed from a checkpoint is
// replayed the rounds after the one its snapshot recorded, and does not
// re-send rounds its peers already consumed. A reconnect is a new
// connection with a new cursor; the connection it displaces is drained to
// EOF, not closed, because a peer that died may have written a round
// nobody will send again. The send log is retained by epoch
// (Config.RetainEpochs) so replay always covers a resume from the newest
// checkpoint boundary.
//
// Synchronous mode (MaxStaleness == 0) waits up to PeerTimeout for every
// round and fails loudly after that — rows are never substituted, so the
// assembled matrices (and the final model) are bitwise identical to a
// single-process run. Stale-bounded mode (MaxStaleness > 0) waits only
// ExchangeTimeout, then falls back to the newest rows previously received
// for the same exchange site if they are at most MaxStaleness epochs old,
// counting a stale hit; past the bound it keeps waiting to PeerTimeout and
// then fails loudly.
//
// Every reconnect, replay, stale hit, and corrupt frame is counted in the
// obs registry (EnableMetrics) and surfaced in Stats; exchange rounds emit
// spans carrying the round seq as a span link, so two shards' trace
// timelines correlate round-by-round.
package distnet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scalegnn/internal/obs"
)

// Defaults for the zero-valued Config knobs.
const (
	DefaultPeerTimeout     = 60 * time.Second
	DefaultExchangeTimeout = 500 * time.Millisecond
	DefaultHeartbeatEvery  = 250 * time.Millisecond
	DefaultFailAfter       = 2 * time.Second
	DefaultDialBackoff     = 50 * time.Millisecond
	DefaultMaxBackoff      = 2 * time.Second
	DefaultWriteTimeout    = 10 * time.Second
	DefaultRetainEpochs    = 2

	// maxInbox bounds the out-of-order rounds buffered per peer; in
	// lockstep operation the inbox holds at most a handful of entries, so
	// hitting the bound means a protocol bug, not load.
	maxInbox = 1024
)

// Config describes one shard's view of the cluster.
type Config struct {
	Shard int      // this process's shard id, 0-based
	N     int      // cluster size
	Addrs []string // len N; Addrs[i] is shard i's listen address ("unix:/path" or "tcp:host:port")

	// Fingerprint identifies the run; the handshake rejects peers with a
	// different one (a shard from another run must not feed us rows).
	Fingerprint uint64

	// MaxStaleness is the graceful-degradation bound: 0 means strict
	// synchronous exchange (bitwise parity), k > 0 permits substituting
	// rows up to k epochs old when a peer lags past ExchangeTimeout.
	MaxStaleness int

	ExchangeTimeout time.Duration // stale-fallback wait (MaxStaleness > 0 only)
	PeerTimeout     time.Duration // hard bound before a round fails loudly
	HeartbeatEvery  time.Duration // idle-connection heartbeat cadence
	FailAfter       time.Duration // read silence before a connection is declared dead
	DialBackoff     time.Duration // initial reconnect backoff (doubles per failure)
	MaxBackoff      time.Duration // reconnect backoff cap
	WriteTimeout    time.Duration // per-frame write deadline

	// RetainEpochs keeps send-log entries for rounds at most this many
	// epochs old, bounding replay memory while guaranteeing a peer resuming
	// from its newest checkpoint can be caught up. Set it to at least the
	// checkpoint cadence + 1.
	RetainEpochs int

	// Ctx, when non-nil, aborts blocked exchanges on cancellation.
	Ctx context.Context
}

func (c *Config) fillDefaults() {
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = DefaultPeerTimeout
	}
	if c.ExchangeTimeout <= 0 {
		c.ExchangeTimeout = DefaultExchangeTimeout
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if c.FailAfter <= 0 {
		c.FailAfter = DefaultFailAfter
	}
	if c.DialBackoff <= 0 {
		c.DialBackoff = DefaultDialBackoff
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = DefaultMaxBackoff
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if c.RetainEpochs <= 0 {
		c.RetainEpochs = DefaultRetainEpochs
	}
}

// RowBlock is a set of feature rows keyed by global node id: len(IDs) rows
// of Cols values, stored row-major in exactly one of F64/F32.
type RowBlock struct {
	IDs  []int32
	Cols int
	F64  []float64
	F32  []float32
}

// RoundError is a failed exchange round: the site and round seq, the peer
// that could not be satisfied, and why. It is the loud failure the staleness
// bound and PeerTimeout promise.
type RoundError struct {
	Site string
	Seq  uint64
	Peer int
	Why  string
	Err  error
}

func (e *RoundError) Error() string {
	msg := fmt.Sprintf("distnet: round %d (%s) failed waiting on shard %d: %s", e.Seq, e.Site, e.Peer, e.Why)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *RoundError) Unwrap() error { return e.Err }

// Cluster is one shard's runtime state: the listener, one peer state
// machine per remote shard, and the round counter.
//
// Exchange, SetEpoch, MarshalBinary, and UnmarshalBinary must all be called
// from the single training goroutine; everything else is internally
// synchronized.
type Cluster struct {
	cfg  Config
	ln   net.Listener
	peer []*peer // indexed by shard id; peer[Shard] == nil

	seq     uint64 // last assigned round seq
	epoch   int64  // current training epoch (SetEpoch)
	siteIdx int64  // per-epoch exchange-site counter (nextSite)

	root    obs.Span
	done    chan struct{}
	closing atomic.Bool
	wg      sync.WaitGroup
	links   sync.Once // startLinks, at the first Exchange

	// conns is every connection with a running reader — each peer's link
	// and any displaced one still draining — so Close can sever them all.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	stats clusterStats
}

// clusterStats are the cluster's own atomic counters, mirrored into the obs
// registry when EnableMetrics has bound the refs.
type clusterStats struct {
	rounds        atomic.Int64
	staleHits     atomic.Int64
	reconnects    atomic.Int64
	dialRetries   atomic.Int64
	framesCorrupt atomic.Int64
	replays       atomic.Int64
}

// Stats is a point-in-time snapshot of the cluster's fault counters.
type Stats struct {
	Rounds        int64 // completed exchange rounds
	StaleHits     int64 // rounds satisfied from the stale cache
	Reconnects    int64 // connections lost and re-established
	DialRetries   int64 // failed dial attempts (each backed off)
	FramesCorrupt int64 // frames rejected by CRC/format validation
	Replays       int64 // log entries re-sent to a reconnected peer
}

// Stats returns the current counter values.
func (c *Cluster) Stats() Stats {
	return Stats{
		Rounds:        c.stats.rounds.Load(),
		StaleHits:     c.stats.staleHits.Load(),
		Reconnects:    c.stats.reconnects.Load(),
		DialRetries:   c.stats.dialRetries.Load(),
		FramesCorrupt: c.stats.framesCorrupt.Load(),
		Replays:       c.stats.replays.Load(),
	}
}

// Shard returns this process's shard id.
func (c *Cluster) Shard() int { return c.cfg.Shard }

// N returns the cluster size.
func (c *Cluster) N() int { return c.cfg.N }

// splitAddr maps a configured address to (network, address) for net.Dial /
// net.Listen: "unix:/path/sock" selects a unix socket, "tcp:host:port"
// (or a bare "host:port") selects TCP.
func splitAddr(addr string) (network, address string) {
	switch {
	case strings.HasPrefix(addr, "unix:"):
		return "unix", strings.TrimPrefix(addr, "unix:")
	case strings.HasPrefix(addr, "tcp:"):
		return "tcp", strings.TrimPrefix(addr, "tcp:")
	default:
		return "tcp", addr
	}
}

// Open starts shard cfg.Shard of an N-process cluster: it binds this
// shard's listen address and returns. The mesh forms at the first Exchange
// — dialing every lower-numbered shard (with bounded exponential backoff,
// forever), accepting connections from higher-numbered ones — because a
// handshake carries the cursor, and a resumed shard learns its cursor only
// in UnmarshalBinary.
func Open(cfg Config) (*Cluster, error) {
	cfg.fillDefaults()
	if cfg.N < 1 {
		return nil, fmt.Errorf("distnet: cluster size %d", cfg.N)
	}
	if cfg.Shard < 0 || cfg.Shard >= cfg.N {
		return nil, fmt.Errorf("distnet: shard %d out of range [0,%d)", cfg.Shard, cfg.N)
	}
	if len(cfg.Addrs) != cfg.N {
		return nil, fmt.Errorf("distnet: %d addresses for %d shards", len(cfg.Addrs), cfg.N)
	}
	c := &Cluster{cfg: cfg, done: make(chan struct{}), conns: make(map[net.Conn]struct{})}
	c.root = obs.Start("distnet.cluster")
	c.root.SetLabel(fmt.Sprintf("shard%d/%d", cfg.Shard, cfg.N))
	if cfg.N > 1 {
		network, address := splitAddr(cfg.Addrs[cfg.Shard])
		if network == "unix" {
			// A SIGKILLed shard leaves its socket file behind; the rejoining
			// process owns this address and must be able to rebind it.
			_ = os.Remove(address)
		}
		ln, err := net.Listen(network, address)
		if err != nil {
			c.root.End()
			return nil, fmt.Errorf("distnet: listen %s: %w", cfg.Addrs[cfg.Shard], err)
		}
		c.ln = ln
	}
	c.peer = make([]*peer, cfg.N)
	for id := 0; id < cfg.N; id++ {
		if id == cfg.Shard {
			continue
		}
		p := newPeer(c, id)
		c.peer[id] = p
		c.wg.Add(1)
		//lint:ignore naked-go per-peer sender is a long-lived connection actor joined by Close via wg
		go p.sendLoop()
	}
	return c, nil
}

// startLinks launches the goroutines that make connections.
func (c *Cluster) startLinks() {
	for id, p := range c.peer {
		if p != nil && id < c.cfg.Shard { // the higher-numbered shard of a pair dials
			c.wg.Add(1)
			//lint:ignore naked-go per-peer dial/read supervisor is a long-lived connection actor joined by Close via wg
			go p.dialLoop()
		}
	}
	if c.ln != nil {
		c.wg.Add(1)
		//lint:ignore naked-go accept loop is a long-lived listener actor joined by Close via wg
		go c.acceptLoop()
	}
}

// Close tears the cluster down: it stops every background goroutine,
// closes the listener and all connections, and ends the cluster span. A
// blocked Exchange returns an error promptly.
func (c *Cluster) Close() error {
	if c.closing.Swap(true) {
		return nil
	}
	close(c.done)
	// Let every sender finish its final drain before severing connections:
	// the peer may still be waiting on the last round's rows.
	for _, p := range c.peer {
		if p != nil {
			<-p.senderDone
		}
	}
	var err error
	if c.ln != nil {
		err = c.ln.Close()
	}
	c.connMu.Lock()
	for conn := range c.conns {
		_ = conn.Close()
	}
	c.connMu.Unlock()
	c.links.Do(func() {}) // no first Exchange may start them now
	c.wg.Wait()
	c.root.End()
	return err
}

// acceptLoop accepts inbound connections (from higher-numbered shards) and
// hands each to a handshake goroutine.
func (c *Cluster) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			if c.closing.Load() {
				return
			}
			select {
			case <-c.done:
				return
			case <-time.After(10 * time.Millisecond):
				continue
			}
		}
		c.wg.Add(1)
		//lint:ignore naked-go per-connection inbound handshake, joined by Close via wg
		go c.serveInbound(conn)
	}
}

// serveInbound runs one inbound connection.
func (c *Cluster) serveInbound(conn net.Conn) {
	defer c.wg.Done()
	_ = c.connect(conn, nil) // a dialer that fails the handshake backs off and retries
}

// track registers a connection whose reader is about to start, so Close can
// sever it — live link or displaced one still draining; it refuses once the
// cluster is closing.
func (c *Cluster) track(conn net.Conn) bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.closing.Load() {
		return false
	}
	c.conns[conn] = struct{}{}
	return true
}

func (c *Cluster) untrack(conn net.Conn) {
	c.connMu.Lock()
	delete(c.conns, conn)
	c.connMu.Unlock()
}

// nextSite returns the next deterministic exchange-site name within the
// current epoch ("a0", "a1", ...). Lockstep shards call it in the same
// order, so a site names the same propagation step on every shard — the
// key the stale cache is aged by.
func (c *Cluster) nextSite() string {
	s := fmt.Sprintf("a%d", c.siteIdx)
	c.siteIdx++
	return s
}

// SetEpoch advances the cluster's epoch (the staleness clock) and resets
// the per-epoch site counter. Call it from a train.Hook at every epoch
// boundary.
func (c *Cluster) SetEpoch(epoch int) {
	c.epoch = int64(epoch)
	c.siteIdx = 0
}

// MarshalBinary serializes the exchange cursor (round seq, epoch, site
// counter) for the checkpoint Aux blob, so a resumed shard rejoins the
// round sequence exactly where its snapshot left it.
func (c *Cluster) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 24)
	buf = binary.LittleEndian.AppendUint64(buf, c.seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.epoch))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.siteIdx))
	return buf, nil
}

// UnmarshalBinary restores the exchange cursor from a checkpoint Aux blob:
// the rounds up to it were consumed from every peer before the crash. Must
// run before the first Exchange (train resume does), whose handshakes then
// ask for exactly the rounds after it.
func (c *Cluster) UnmarshalBinary(data []byte) error {
	if len(data) != 24 {
		return fmt.Errorf("distnet: aux state is %d bytes, want 24", len(data))
	}
	c.seq = binary.LittleEndian.Uint64(data)
	c.epoch = int64(binary.LittleEndian.Uint64(data[8:]))
	c.siteIdx = int64(binary.LittleEndian.Uint64(data[16:]))
	for _, p := range c.peer {
		if p != nil {
			p.mu.Lock()
			p.consumed = c.seq
			p.mu.Unlock()
		}
	}
	return nil
}

// Exchange runs one round: send outgoing[id] to every peer id, then wait
// for every peer's rows for the same round. outgoing may map distinct peers
// to the same *RowBlock (an allgather); it is encoded once per distinct
// block. The returned map holds one RowBlock per peer.
//
// In synchronous mode a round either completes exactly or fails with a
// *RoundError after PeerTimeout. With MaxStaleness > 0, a peer that stays
// silent past ExchangeTimeout is substituted from the stale cache when the
// cached rows for this site are at most MaxStaleness epochs old; otherwise
// the wait continues to PeerTimeout and then fails loudly.
func (c *Cluster) Exchange(site string, outgoing map[int]*RowBlock) (map[int]*RowBlock, error) {
	if c.cfg.N == 1 {
		return map[int]*RowBlock{}, nil
	}
	c.links.Do(c.startLinks)
	c.seq++
	seq := c.seq
	epoch := c.epoch

	sp := obs.Start("distnet.exchange")
	sp.SetLabel(site)
	sp.Link(seq)
	defer sp.End()

	encoded := make(map[*RowBlock][]byte, 1)
	for id, p := range c.peer {
		if p == nil {
			continue
		}
		blk := outgoing[id]
		if blk == nil {
			blk = &RowBlock{}
		}
		buf, ok := encoded[blk]
		if !ok {
			buf = encodeRows(c.cfg.Shard, seq, epoch, site, blk)
			encoded[blk] = buf
		}
		p.enqueue(seq, epoch, buf)
	}

	deadline := time.Now().Add(c.cfg.PeerTimeout)
	var staleAt time.Time
	if c.cfg.MaxStaleness > 0 {
		staleAt = time.Now().Add(c.cfg.ExchangeTimeout)
	}
	got := make(map[int]*RowBlock, c.cfg.N-1)
	for id, p := range c.peer {
		if p == nil {
			continue
		}
		blk, stale, waited, err := p.await(seq, site, epoch, deadline, staleAt)
		rsp := sp.Child("distnet.recv")
		rsp.SetLabel(fmt.Sprintf("shard%d", id))
		rsp.Link(seq)
		rsp.SetWait(waited)
		rsp.End()
		if err != nil {
			return nil, err
		}
		if stale {
			c.stats.staleHits.Add(1)
			staleHitsC.Add(1)
			sp.SetLabel(site + " stale")
		}
		got[id] = blk
		sp.AddCount(int64(len(blk.IDs)))
	}
	c.stats.rounds.Add(1)
	roundsC.Add(1)
	return got, nil
}

// ctxDone returns the configured context's done channel, or nil (blocks
// forever) when no context was supplied.
func (c *Cluster) ctxDone() <-chan struct{} {
	if c.cfg.Ctx == nil {
		return nil
	}
	return c.cfg.Ctx.Done()
}

func (c *Cluster) ctxErr() error {
	if c.cfg.Ctx == nil {
		return errors.New("no context")
	}
	return c.cfg.Ctx.Err()
}

// Cluster-level metric refs, disabled (one atomic load, no work) until
// EnableMetrics binds them to a registry.
var (
	roundsC        obs.CounterRef
	staleHitsC     obs.CounterRef
	reconnectsC    obs.CounterRef
	dialRetriesC   obs.CounterRef
	framesCorruptC obs.CounterRef
	replaysC       obs.CounterRef
	bytesSentC     obs.CounterRef
	bytesRecvC     obs.CounterRef
)

// EnableMetrics binds the runtime's metrics to reg (see DESIGN.md
// "Observability" for the name registry):
//
//	distnet.rounds          counter  completed exchange rounds
//	distnet.stale_hits      counter  rounds satisfied from the stale cache
//	distnet.reconnects      counter  connections lost and re-established
//	distnet.dial_retries    counter  failed dial attempts
//	distnet.frames_corrupt  counter  frames rejected by CRC/format checks
//	distnet.replays         counter  log entries re-sent to a reconnected peer
//	distnet.bytes_sent      counter  wire bytes written
//	distnet.bytes_recv      counter  wire bytes read (validated frames)
//
// Call once at process start; pass nil to unbind.
func EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		for _, r := range []*obs.CounterRef{&roundsC, &staleHitsC, &reconnectsC,
			&dialRetriesC, &framesCorruptC, &replaysC, &bytesSentC, &bytesRecvC} {
			r.Bind(nil)
		}
		return
	}
	roundsC.Bind(reg.Counter("distnet.rounds"))
	staleHitsC.Bind(reg.Counter("distnet.stale_hits"))
	reconnectsC.Bind(reg.Counter("distnet.reconnects"))
	dialRetriesC.Bind(reg.Counter("distnet.dial_retries"))
	framesCorruptC.Bind(reg.Counter("distnet.frames_corrupt"))
	replaysC.Bind(reg.Counter("distnet.replays"))
	bytesSentC.Bind(reg.Counter("distnet.bytes_sent"))
	bytesRecvC.Bind(reg.Counter("distnet.bytes_recv"))
}
