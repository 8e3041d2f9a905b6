package distnet

import (
	"net"
	"testing"
	"time"
)

// connPair returns the two ends of one connected unix stream socket. Unlike
// net.Pipe the kernel buffers what one end writes, so a frame can sit unread
// after its writer has closed — the state a crashed peer leaves behind.
func connPair(t *testing.T) (a, b net.Conn) {
	t.Helper()
	network, address := splitAddr(sockAddrs(t, 1)[0])
	ln, err := net.Listen(network, address)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err = net.Dial(network, address)
	if err != nil {
		t.Fatal(err)
	}
	b, err = ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	return a, b
}

// TestDisplacedConnectionIsDrained: a peer dies right after writing its
// round and dials again before our reader of the old connection has run.
// Installing the new connection must not discard the round still buffered
// on the old one — the restarted peer's cursor is already past it, so
// nobody would ever send it again. No clock decides the verdict: the frame
// is complete and its writer closed before install, and await is given a
// deadline that has already passed.
func TestDisplacedConnectionIsDrained(t *testing.T) {
	c := &Cluster{cfg: Config{Shard: 0, N: 2}}
	c.cfg.fillDefaults()
	p := newPeer(c, 1)

	x, remote := connPair(t)
	if err := writeFrame(remote, time.Second, encodeRows(1, 1, 0, "s", oneRowBlock(7))); err != nil {
		t.Fatal(err)
	}
	_ = remote.Close()
	old := &link{conn: x}
	p.install(old)

	y, _ := connPair(t)
	p.install(&link{conn: y})

	p.readLoop(old) // returns at the EOF behind the frame
	blk, stale, _, err := p.await(1, "s", 0, time.Time{}, time.Time{})
	if err != nil {
		t.Fatalf("round 1 was lost with its connection: %v", err)
	}
	if stale || blk.F64[0] != 7 {
		t.Fatalf("round 1 = %v (stale=%v), want the row the peer wrote", blk.F64, stale)
	}
}
