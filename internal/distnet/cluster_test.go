package distnet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"scalegnn/internal/fault"
	"scalegnn/internal/graph"
	"scalegnn/internal/partition"
	"scalegnn/internal/tensor"
)

// sockAddrs returns k unix-socket addresses in a short-pathed temp dir
// (sun_path caps at ~100 bytes, so t.TempDir() is too deep on some CI).
func sockAddrs(t *testing.T, k int) []string {
	t.Helper()
	dir, err := os.MkdirTemp("", "dn")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.RemoveAll(dir) })
	addrs := make([]string, k)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("unix:%s/s%d.sock", dir, i)
	}
	return addrs
}

// startClusters opens k clusters over unix sockets, with mut applied to
// each Config before Open.
func startClusters(t *testing.T, k int, mut func(*Config)) []*Cluster {
	t.Helper()
	addrs := sockAddrs(t, k)
	cs := make([]*Cluster, k)
	for i := 0; i < k; i++ {
		cfg := Config{
			Shard: i, N: k, Addrs: addrs, Fingerprint: 0xfeed,
			PeerTimeout:    20 * time.Second,
			HeartbeatEvery: 50 * time.Millisecond,
			FailAfter:      time.Second,
		}
		if mut != nil {
			mut(&cfg)
		}
		c, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		cs[i] = c
	}
	return cs
}

// eachShard runs fn concurrently for every cluster (one goroutine per
// simulated process) and fails the test on the first error.
func eachShard(t *testing.T, cs []*Cluster, fn func(c *Cluster) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(cs))
	for i, c := range cs {
		wg.Add(1)
		//lint:ignore naked-go each goroutine simulates one shard process, joined via wg
		go func(i int, c *Cluster) {
			defer wg.Done()
			errs[i] = fn(c)
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
}

// fixture builds one shard's private copy of the shared deterministic
// dataset: every simulated process re-derives the same graph, features,
// and partition from the seed, exactly like real gnntrain shards do.
func fixture(n, k int) (*graph.CSR, *partition.Assignment, *tensor.Matrix) {
	rng := tensor.NewRand(23)
	g := graph.ErdosRenyi(n, 5*n, rng)
	parts := make([]int, n)
	for i := range parts {
		parts[i] = i % k
	}
	x := tensor.RandNormal(n, 4, 1.0, rng)
	return g, &partition.Assignment{Parts: parts, K: k}, x
}

// TestHookApplyBitwiseIdentical: ApplyInto through the distributed hook
// (owned rows computed locally, the rest received over unix sockets) must
// be bitwise identical to the plain single-process ApplyInto, for 2, 3 and
// 4 shards — and must have got there by moving frame bytes in exchange
// rounds on every shard, not by computing all rows locally.
func TestHookApplyBitwiseIdentical(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		cs := startClusters(t, k, nil)
		sent0, _ := WireBytes()
		results := make([]*tensor.Matrix, k)
		eachShard(t, cs, func(c *Cluster) (err error) {
			defer recoverExchange(&err)
			g, a, x := fixture(80, k)
			h, err := NewHook(c, a)
			if err != nil {
				return err
			}
			h.Attach(g)
			op := graph.NewOperator(g, graph.NormSymmetric, true)
			dst := tensor.New(x.Rows, x.Cols)
			op.ApplyInto(x, dst) // dispatches through the hook
			results[c.Shard()] = dst
			return nil
		})
		g, _, x := fixture(80, k)
		want := tensor.New(x.Rows, x.Cols)
		graph.NewOperator(g, graph.NormSymmetric, true).ApplyInto(x, want)
		for shard, got := range results {
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("k=%d shard %d: data[%d] = %v, want %v (not bitwise identical)",
						k, shard, i, got.Data[i], want.Data[i])
				}
			}
		}
		if sent1, _ := WireBytes(); sent1 <= sent0 {
			t.Fatalf("k=%d: no wire traffic (sent %d -> %d bytes)", k, sent0, sent1)
		}
		for _, c := range cs {
			s := c.Stats()
			if s.StaleHits != 0 {
				t.Fatalf("sync-mode run recorded %d stale hits", s.StaleHits)
			}
			if s.Rounds == 0 {
				t.Fatalf("k=%d shard %d: no exchange round completed", k, c.Shard())
			}
		}
	}
}

// recoverExchange converts the hook's typed panic into an error return, the
// same recovery the gnntrain driver performs at the Fit boundary.
func recoverExchange(err *error) {
	if r := recover(); r != nil {
		if xe, ok := r.(*ExchangeError); ok {
			*err = xe
			return
		}
		panic(r)
	}
}

// oneRowBlock is a tiny distinguishable payload for protocol-level tests.
func oneRowBlock(v float64) *RowBlock {
	return &RowBlock{IDs: []int32{0}, Cols: 1, F64: []float64{v}}
}

// allPeers maps every remote shard to the same block.
func allPeers(c *Cluster, b *RowBlock) map[int]*RowBlock {
	out := make(map[int]*RowBlock)
	for id, p := range c.peer {
		if p != nil {
			out[id] = b
		}
	}
	return out
}

// TestStaleFallback: with MaxStaleness > 0, a slow peer's round is served
// from the stale cache after ExchangeTimeout — the fast shard keeps moving
// with rows one round old, and the stale hit is counted.
func TestStaleFallback(t *testing.T) {
	cs := startClusters(t, 2, func(cfg *Config) {
		cfg.MaxStaleness = 2
		cfg.ExchangeTimeout = 100 * time.Millisecond
	})
	staleVal := make(chan float64, 1)
	eachShard(t, cs, func(c *Cluster) error {
		if c.Shard() == 1 {
			// Round 1 on time, round 2 a second late.
			if _, err := c.Exchange("s", allPeers(c, oneRowBlock(10))); err != nil {
				return err
			}
			time.Sleep(time.Second)
			_, err := c.Exchange("s", allPeers(c, oneRowBlock(20)))
			return err
		}
		if _, err := c.Exchange("s", allPeers(c, oneRowBlock(1))); err != nil {
			return err
		}
		got, err := c.Exchange("s", allPeers(c, oneRowBlock(2)))
		if err != nil {
			return err
		}
		staleVal <- got[1].F64[0]
		return nil
	})
	if v := <-staleVal; v != 10 {
		t.Fatalf("stale round returned %v, want the cached round-1 value 10", v)
	}
	if s := cs[0].Stats(); s.StaleHits != 1 {
		t.Fatalf("fast shard counted %d stale hits, want 1", s.StaleHits)
	}
	if s := cs[1].Stats(); s.StaleHits != 0 {
		t.Fatalf("slow shard counted %d stale hits, want 0", s.StaleHits)
	}
}

// TestMaxStalenessExceededFailsLoudly: once the only cached rows age past
// the bound, the round must fail with a descriptive RoundError rather than
// serving arbitrarily old embeddings or hanging.
func TestMaxStalenessExceededFailsLoudly(t *testing.T) {
	cs := startClusters(t, 2, func(cfg *Config) {
		cfg.MaxStaleness = 1
		cfg.ExchangeTimeout = 50 * time.Millisecond
		cfg.PeerTimeout = 700 * time.Millisecond
	})
	stop := make(chan struct{})
	errc := make(chan error, 1)
	eachShard(t, cs, func(c *Cluster) error {
		if c.Shard() == 1 {
			// Participate in round 1, then go quiet (alive, heartbeating,
			// but contributing nothing) until shard 0 has failed.
			_, err := c.Exchange("s", allPeers(c, oneRowBlock(10)))
			<-stop
			return err
		}
		defer close(stop)
		if _, err := c.Exchange("s", allPeers(c, oneRowBlock(1))); err != nil {
			return err
		}
		// Cache age 1 <= bound: still served.
		c.SetEpoch(1)
		if _, err := c.Exchange("s", allPeers(c, oneRowBlock(2))); err != nil {
			return fmt.Errorf("age-1 round should have used the cache: %w", err)
		}
		// Cache age 3 > bound: must fail loudly.
		c.SetEpoch(3)
		_, err := c.Exchange("s", allPeers(c, oneRowBlock(3)))
		errc <- err
		return nil
	})
	err := <-errc
	if err == nil {
		t.Fatal("round past the staleness bound reported success")
	}
	var re *RoundError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T, want *RoundError: %v", err, err)
	}
	if !strings.Contains(err.Error(), "staleness") {
		t.Fatalf("error does not name the staleness bound: %v", err)
	}
	if s := cs[0].Stats(); s.StaleHits != 1 {
		t.Fatalf("stale hits = %d, want exactly the age-1 round", s.StaleHits)
	}
}

// TestTornFrameRecovery: an injected partial write (a torn frame on the
// wire) must sever the connection, reconnect, replay, and still deliver a
// correct round — and the damage must show up in the counters.
func TestTornFrameRecovery(t *testing.T) {
	t.Cleanup(fault.Reset)
	cs := startClusters(t, 2, nil)
	// Let the mesh settle so the handshake is never the torn write; then
	// arm: the 3rd send after arming is a live heartbeat or rows frame from
	// one of the shards.
	time.Sleep(200 * time.Millisecond)
	if err := fault.Set("distnet.send", "partial@3"); err != nil {
		t.Fatal(err)
	}
	const rounds = 6
	vals := make([][]float64, 2)
	eachShard(t, cs, func(c *Cluster) error {
		for r := 1; r <= rounds; r++ {
			got, err := c.Exchange(fmt.Sprintf("r%d", r), allPeers(c, oneRowBlock(float64(10*c.Shard()+r))))
			if err != nil {
				return err
			}
			vals[c.Shard()] = append(vals[c.Shard()], got[1-c.Shard()].F64[0])
		}
		return nil
	})
	for shard, got := range vals {
		for r := 1; r <= rounds; r++ {
			want := float64(10*(1-shard) + r)
			if got[r-1] != want {
				t.Fatalf("shard %d round %d: got %v, want %v", shard, r, got[r-1], want)
			}
		}
	}
	if fault.Hits("distnet.send") < 3 {
		t.Fatal("partial-write failpoint never fired")
	}
	total := int64(0)
	for _, c := range cs {
		s := c.Stats()
		total += s.FramesCorrupt + s.Reconnects + s.DialRetries
	}
	if total == 0 {
		t.Fatal("torn frame left no trace in the fault counters")
	}
}

// waitFor polls cond (a read of peer state under its lock) until it holds;
// the bound only turns a hang into a failure.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestReconnectAtEveryRound: tear the connection once at each round index
// of a short run — the next frame either shard writes after the arming
// shard enters that round is half-written and its connection severed, be
// it rows, a heartbeat, or a hello — and require every round's exact
// values on both shards. Whatever was in flight when the link died is
// re-sent from the cursors the next handshake carries.
func TestReconnectAtEveryRound(t *testing.T) {
	t.Cleanup(fault.Reset)
	const rounds = 4
	for tear := 1; tear <= rounds; tear++ {
		t.Run(fmt.Sprintf("round%d", tear), func(t *testing.T) {
			cs := startClusters(t, 2, nil)
			vals := make([][]float64, 2)
			eachShard(t, cs, func(c *Cluster) error {
				for r := 1; r <= rounds; r++ {
					if r == tear && c.Shard() == tear%2 {
						if err := fault.Set("distnet.send", "partial@1"); err != nil {
							return err
						}
					}
					got, err := c.Exchange("s", allPeers(c, oneRowBlock(float64(10*c.Shard()+r))))
					if err != nil {
						return fmt.Errorf("round %d: %w", r, err)
					}
					vals[c.Shard()] = append(vals[c.Shard()], got[1-c.Shard()].F64[0])
				}
				return nil
			})
			for shard, got := range vals {
				for r := 1; r <= rounds; r++ {
					if want := float64(10*(1-shard) + r); got[r-1] != want {
						t.Fatalf("shard %d round %d: got %v, want %v", shard, r, got[r-1], want)
					}
				}
			}
			if fault.Hits("distnet.send") < 1 {
				t.Fatal("partial-write failpoint never fired")
			}
			fault.Reset()
			total := int64(0)
			for _, c := range cs {
				s := c.Stats()
				total += s.FramesCorrupt + s.Reconnects + s.DialRetries
				if s.StaleHits != 0 {
					t.Fatalf("shard %d substituted %d stale rounds in sync mode", c.Shard(), s.StaleHits)
				}
			}
			if total == 0 {
				t.Fatal("torn frame left no trace in the fault counters")
			}
		})
	}
}

// TestResumeReplayAfterRestart: a shard that dies mid-sequence and comes
// back with its checkpointed cursor must be able to finish the rounds the
// surviving shard is blocked on, fed by the peer's send-log replay — whether
// it is the dialling or the accepting side that restarts. Either way the
// survivor's reconnect loop may reach the new process before UnmarshalBinary
// has run; no handshake may answer it with a fresh start's cursor.
func TestResumeReplayAfterRestart(t *testing.T) {
	t.Run("dialer restarts", func(t *testing.T) { resumeReplay(t, 1) })
	t.Run("acceptor restarts", func(t *testing.T) { resumeReplay(t, 0) })
}

func resumeReplay(t *testing.T, crash int) {
	live := 1 - crash
	addrs := sockAddrs(t, 2)
	mk := func(shard int) *Cluster {
		c, err := Open(Config{
			Shard: shard, N: 2, Addrs: addrs, Fingerprint: 0xfeed,
			PeerTimeout:    20 * time.Second,
			HeartbeatEvery: 50 * time.Millisecond,
			FailAfter:      time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	val := func(shard, r int) float64 { return float64(100*shard + r) }
	round := func(c *Cluster, r int) error {
		got, err := c.Exchange("s", allPeers(c, oneRowBlock(val(c.Shard(), r))))
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		if peer := 1 - c.Shard(); got[peer].F64[0] != val(peer, r) {
			return fmt.Errorf("round %d: got %v, want %v", r, got[peer].F64[0], val(peer, r))
		}
		return nil
	}
	survivor, dying := mk(live), mk(crash)

	results := make(chan error, 1)
	//lint:ignore naked-go simulates the surviving shard process, joined via results
	go func() {
		for r := 1; r <= 5; r++ {
			if err := round(survivor, r); err != nil {
				results <- err
				return
			}
		}
		results <- nil
	}()
	// The other shard completes three rounds and "crashes" once the
	// survivor's round 4 has reached it: of the two rounds it still needs,
	// one has been transmitted before and one has not.
	for r := 1; r <= 3; r++ {
		if err := round(dying, r); err != nil {
			t.Fatalf("pre-crash %v", err)
		}
	}
	waitFor(t, "the survivor's round 4", func() bool {
		p := dying.peer[live]
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.inbox[4] != nil
	})
	cursor, err := dying.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	_ = dying.Close()

	// Restart it from the checkpointed cursor; its next rounds are 4 and 5.
	resumed := mk(crash)
	if err := resumed.UnmarshalBinary(cursor); err != nil {
		t.Fatal(err)
	}
	for r := 4; r <= 5; r++ {
		if err := round(resumed, r); err != nil {
			t.Fatalf("post-resume %v", err)
		}
	}
	if err := <-results; err != nil {
		t.Fatalf("surviving shard: %v", err)
	}
	s := survivor.Stats()
	if s.Reconnects == 0 {
		t.Fatal("surviving shard never recorded the reconnect")
	}
	// The resumed shard needed rounds 4 and 5; only 4 had been sent before.
	// The handshake carried the restored cursor, so exactly that one is
	// replayed — not everything the survivor retains.
	if s.Replays != 1 {
		t.Fatalf("survivor replayed %d rounds, want exactly round 4", s.Replays)
	}
	if r := resumed.Stats().Replays; r != 0 {
		t.Fatalf("resumed shard re-sent %d rounds its peer had consumed", r)
	}
}

// TestExchangeCancelled: a cancelled context aborts a blocked round
// promptly with a RoundError that reflects the cancellation.
func TestExchangeCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cs := startClusters(t, 2, func(cfg *Config) {
		cfg.Ctx = ctx
		cfg.PeerTimeout = 30 * time.Second
	})
	//lint:ignore naked-go timed cancel helper; the cancelled Exchange below synchronizes the test
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := cs[0].Exchange("s", allPeers(cs[0], oneRowBlock(1)))
	if err == nil {
		t.Fatal("cancelled exchange reported success")
	}
	if !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("error does not reflect cancellation: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not unblock the round promptly")
	}
}

// TestSyncModeTimesOutLoudly: strict sync mode never substitutes rows — a
// silent peer fails the round at PeerTimeout with zero stale hits.
func TestSyncModeTimesOutLoudly(t *testing.T) {
	cs := startClusters(t, 2, func(cfg *Config) {
		cfg.PeerTimeout = 400 * time.Millisecond
	})
	_, err := cs[0].Exchange("s", allPeers(cs[0], oneRowBlock(1)))
	var re *RoundError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T (%v), want *RoundError", err, err)
	}
	if s := cs[0].Stats(); s.StaleHits != 0 || s.Rounds != 0 {
		t.Fatalf("sync timeout: stale=%d rounds=%d, want 0/0", s.StaleHits, s.Rounds)
	}
}

// TestHandshakeRejectsWrongFingerprint: a shard from a different run must
// never join the mesh; its dials are rejected and the good shard's round
// times out rather than consuming foreign rows.
func TestHandshakeRejectsWrongFingerprint(t *testing.T) {
	addrs := sockAddrs(t, 2)
	open := func(shard int, fp uint64) *Cluster {
		c, err := Open(Config{
			Shard: shard, N: 2, Addrs: addrs, Fingerprint: fp,
			PeerTimeout: 400 * time.Millisecond, FailAfter: time.Second,
			HeartbeatEvery: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	c0 := open(0, 0xaaaa)
	imposter := open(1, 0xbbbb) // same addresses, different run
	failed := make(chan error, 1)
	//lint:ignore naked-go simulates the imposter process, joined via failed
	go func() {
		_, err := imposter.Exchange("s", allPeers(imposter, oneRowBlock(2)))
		failed <- err
	}()
	_, err := c0.Exchange("s", allPeers(c0, oneRowBlock(1)))
	if err == nil || <-failed == nil {
		t.Fatal("round completed against a shard from a different run")
	}
	s := c0.Stats()
	if s.Rounds != 0 {
		t.Fatal("foreign rows were consumed")
	}
	// The round must have failed because the imposter's hello was turned
	// away, not because nobody connected.
	if s.FramesCorrupt == 0 {
		t.Fatal("no hello was rejected at the handshake")
	}
}
