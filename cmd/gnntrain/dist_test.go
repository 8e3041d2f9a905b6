// Distributed crash-matrix test: two real gnntrain processes train one
// model over unix sockets, one is SIGKILLed mid-epoch, rejoins via
// -resume, and the cluster's final predictions must be bitwise identical
// to a single-process run that was never interrupted.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fingerprintLine extracts the "fingerprint=%016x" value from a run's
// stdout.
func fingerprintLine(t *testing.T, out string) string {
	t.Helper()
	m := regexp.MustCompile(`(?m)^fingerprint=([0-9a-f]{16})$`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no fingerprint line in output:\n%s", out)
	}
	return m[1]
}

// distStat extracts one counter from the "dist rounds=... stale_hits=..."
// stats line of a shard's stdout.
func distStat(t *testing.T, out, name string) int {
	t.Helper()
	m := regexp.MustCompile(`(?m)^dist .*\b` + name + `=(\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no dist %s stat in output:\n%s", name, out)
	}
	v, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// asyncRun starts bin in the background and returns a wait function
// yielding its stdout; the process runs to completion on its own.
func asyncRun(t *testing.T, bin string, env []string, args ...string) func() string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = env
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	//lint:ignore naked-go reaps the background shard process, joined via the returned wait func
	go func() { done <- cmd.Wait() }()
	return func() string {
		t.Helper()
		if err := <-done; err != nil {
			t.Fatalf("%s %v: %v\nstderr:\n%s", filepath.Base(bin), args, err, stderr.String())
		}
		return stdout.String()
	}
}

// distSockets returns two unix-socket addresses in a freshly created short
// temp path (sun_path caps at ~100 bytes, so t.TempDir is too deep when the
// test binary's own path is long).
func distSockets(t *testing.T) (peers string) {
	t.Helper()
	dir, err := os.MkdirTemp("", "dn")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.RemoveAll(dir) })
	return fmt.Sprintf("unix:%s/s0.sock,unix:%s/s1.sock", dir, dir)
}

// TestCrashDistShardKill9Resume is the distributed acceptance gate: a
// 2-shard synchronous cluster where shard 1 is killed -9 while parked
// mid-epoch, restarted with -resume from its durable snapshots, and the
// surviving shard — which spent the outage blocked inside an exchange
// round — is fed the missing rounds from the send-log replay. Both shards'
// prediction fingerprints must equal the uninterrupted single-process
// run's, with zero stale substitutions.
func TestCrashDistShardKill9Resume(t *testing.T) {
	buildBinaries(t)
	base := []string{
		"-model", "gcn", "-nodes", "300", "-epochs", "6", "-seed", "11",
		"-patience", "0", "-fingerprint",
	}
	want := fingerprintLine(t, runToCompletion(t, gnntrainBin, os.Environ(), base...))

	peers := distSockets(t)
	dir0, dir1 := t.TempDir(), t.TempDir()
	shardArgs := func(shard int, ckptDir string) []string {
		return append(append([]string(nil), base...),
			"-shard", fmt.Sprintf("%d/2", shard), "-peers", peers,
			"-checkpoint-dir", ckptDir, "-checkpoint-every", "2",
			"-peer-timeout", "120s",
		)
	}
	wait0 := asyncRun(t, gnntrainBin, os.Environ(), shardArgs(0, dir0)...)
	// Shard 1 parks at its 4th batch step and dies there by kill -9. Its
	// newest durable snapshot is one whole epoch old (snapshots follow
	// epochs 2 and 4), so the rounds of epoch 3 — which it consumed, hence
	// the survivor certainly sent — are rounds it needs again: the replay
	// assertion below does not hang on who reached the next round first.
	killAtMarker(t, gnntrainBin, faultEnv("train.batch=sleep:60000@4"), shardArgs(1, dir1)...)
	if bins, _ := snapshotFiles(t, dir1); len(bins) == 0 {
		t.Fatal("killed shard left no durable snapshot to resume from")
	}
	out1 := runToCompletion(t, gnntrainBin, os.Environ(), append(shardArgs(1, dir1), "-resume")...)
	out0 := wait0()

	for shard, out := range map[int]string{0: out0, 1: out1} {
		if got := fingerprintLine(t, out); got != want {
			t.Errorf("shard %d fingerprint %s, want %s (diverged from single-process run)", shard, got, want)
		}
		if stale := distStat(t, out, "stale_hits"); stale != 0 {
			t.Errorf("shard %d substituted %d stale rounds in strict synchronous mode", shard, stale)
		}
	}
	// The survivor must have seen the churn: the dead shard's connection
	// was re-established and the rounds after the resumed shard's handshake
	// cursor re-sent from its log.
	if rec := distStat(t, out0, "reconnects"); rec < 1 {
		t.Error("surviving shard recorded no reconnect for the killed peer")
	}
	if rep := distStat(t, out0, "replays"); rep < 1 {
		t.Error("surviving shard replayed no rounds for the resumed peer")
	}
}

// TestCrashDistStaleModeStillCompletes: the same kill-9 matrix under
// bounded staleness (-max-staleness 1): the surviving shard coasts on
// cached rows through the outage, hits the staleness wall, blocks, and is
// unblocked by the resumed shard's fresh rounds. Stale substitutions are
// allowed here — the point of the mode — so completion and counters are
// asserted, not bitwise parity. The run is long enough (8 epochs, bound 1)
// that the survivor cannot finish on the cache alone and strand the
// resumed shard against a closed mesh.
func TestCrashDistStaleModeStillCompletes(t *testing.T) {
	buildBinaries(t)
	peers := distSockets(t)
	dir0, dir1 := t.TempDir(), t.TempDir()
	args := func(shard int, dir string) []string {
		return []string{
			"-model", "gcn", "-nodes", "200", "-epochs", "8", "-seed", "3",
			"-patience", "0",
			"-shard", fmt.Sprintf("%d/2", shard), "-peers", peers,
			"-checkpoint-dir", dir, "-checkpoint-every", "1",
			"-max-staleness", "1", "-exchange-timeout", "200ms",
			"-peer-timeout", "120s", "-retain-epochs", "4",
		}
	}
	wait0 := asyncRun(t, gnntrainBin, os.Environ(), args(0, dir0)...)
	killAtMarker(t, gnntrainBin, faultEnv("train.batch=sleep:60000@3"), args(1, dir1)...)
	// A real outage window: long enough past the 200ms exchange timeout
	// that the survivor must coast on the stale cache before the rejoin.
	time.Sleep(1500 * time.Millisecond)
	out1 := runToCompletion(t, gnntrainBin, os.Environ(), append(args(1, dir1), "-resume")...)
	out0 := wait0()
	for shard, out := range map[int]string{0: out0, 1: out1} {
		if !strings.Contains(out, "test=") {
			t.Errorf("shard %d produced no report:\n%s", shard, out)
		}
		if rounds := distStat(t, out, "rounds"); rounds == 0 {
			t.Errorf("shard %d completed no exchange rounds", shard)
		}
	}
	if stale := distStat(t, out0, "stale_hits"); stale < 1 {
		t.Error("surviving shard never used the stale cache during the outage")
	}
}
