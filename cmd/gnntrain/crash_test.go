// Subprocess crash/recovery tests: a real training binary is SIGKILLed in
// the middle of a checkpoint write (a sleep failpoint parks it at the
// vulnerable instant, the test kills it on the fired marker), and the
// resumed process must recover from the last durable snapshot — torn temp
// files ignored, corrupted checksums skipped, output bitwise identical to
// a run that was never interrupted.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"scalegnn/internal/fault"
)

// faultEnv builds the child environment with the given failpoint bindings.
func faultEnv(bindings string) []string {
	env := append([]string(nil), os.Environ()...)
	return append(env, fault.EnvVar+"="+bindings)
}

var (
	buildOnce                            sync.Once
	buildErr                             error
	binDir                               string
	gnntrainBin, gnnfingBin, graphgenBin string
)

// buildBinaries compiles gnntrain, gnnfingerprint and graphgen once per
// test binary, into a directory removed by TestMain after all tests
// finish. The children run un-instrumented even when this test runs under
// -race: the race detector watches the supervising process; the child's
// torn state is what the assertions cover.
func buildBinaries(t *testing.T) {
	t.Helper()
	buildOnce.Do(func() {
		gnntrainBin = filepath.Join(binDir, "gnntrain")
		gnnfingBin = filepath.Join(binDir, "gnnfingerprint")
		graphgenBin = filepath.Join(binDir, "graphgen")
		for dir, out := range map[string]string{".": gnntrainBin, "../gnnfingerprint": gnnfingBin, "../graphgen": graphgenBin} {
			cmd := exec.Command("go", "build", "-o", out, ".")
			cmd.Dir = dir
			if b, err := cmd.CombinedOutput(); err != nil {
				buildErr = fmt.Errorf("go build %s: %v\n%s", dir, err, b)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
}

func TestMain(m *testing.M) {
	os.Exit(runTestMain(m))
}

// runTestMain owns the shared scratch directory the crash tests compile
// their child binaries into; a plain TestMain defer would be skipped by
// os.Exit, hence the wrapper.
func runTestMain(m *testing.M) int {
	var err error
	binDir, err = os.MkdirTemp("", "scalegnn-crash-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	//lint:ignore unchecked-error best-effort scratch cleanup at process end
	defer os.RemoveAll(binDir)
	return m.Run()
}

// runToCompletion runs bin and returns its stdout, failing the test on a
// non-zero exit.
func runToCompletion(t *testing.T, bin string, env []string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = env
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr:\n%s", filepath.Base(bin), args, err, stderr.String())
	}
	return stdout.String()
}

// killAtMarker starts bin with the given failpoint environment, reads its
// stderr until the fault registry prints its "fault: fired" marker (the
// process is then parked inside the armed sleep), and SIGKILLs it — a real
// kill -9 at the exact vulnerable instant. Fails the test if the marker
// never appears (the process exiting first closes the pipe).
func killAtMarker(t *testing.T, bin string, env []string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = env
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stderr)
	fired := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "fault: fired") {
			fired = true
			break
		}
	}
	if !fired {
		//lint:ignore unchecked-error the process is already dead or dying; Wait below reports the real failure
		cmd.Process.Kill()
		//lint:ignore unchecked-error collecting the zombie; the test fails on the missing marker either way
		cmd.Wait()
		t.Fatalf("%s %v exited before the failpoint fired", filepath.Base(bin), args)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	// Drain the pipe so the child can't block on a full buffer while dying.
	//lint:ignore unchecked-error the pipe is closing because we killed the writer
	io.Copy(io.Discard, stderr)
	err = cmd.Wait()
	if err == nil {
		t.Fatal("killed process reported clean exit")
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("wait: %v", err)
	}
	if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() != syscall.SIGKILL {
		t.Fatalf("process died from %v, want SIGKILL", ws.Signal())
	}
}

// snapshotFiles returns the durable snapshots and torn temp files in dir.
func snapshotFiles(t *testing.T, dir string) (bins, tmps []string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		switch {
		case strings.HasSuffix(e.Name(), ".bin"):
			bins = append(bins, filepath.Join(dir, e.Name()))
		case strings.HasSuffix(e.Name(), ".tmp"):
			tmps = append(tmps, filepath.Join(dir, e.Name()))
		}
	}
	return bins, tmps
}

// TestCrashRecoveryKill9 is the tentpole crash test: gnntrain is killed -9
// while parked between writing a snapshot's temp file and renaming it into
// place. The checkpoint directory is then left with durable snapshots plus
// one torn temp file; the newest durable snapshot is additionally
// corrupted with a bit flip. Resume must ignore the temp file, reject the
// corrupt snapshot on its checksum, fall back to the previous one, and
// finish the run cleanly.
func TestCrashRecoveryKill9(t *testing.T) {
	buildBinaries(t)
	dir := t.TempDir()
	args := []string{
		"-model", "gcn", "-nodes", "300", "-epochs", "6", "-seed", "11",
		"-checkpoint-dir", dir, "-checkpoint-every", "1", "-checkpoint-keep", "4",
	}
	// The third snapshot write stalls after its temp file is durable but
	// before the rename — the classic torn-write instant.
	killAtMarker(t, gnntrainBin, faultEnv("ckpt.after-tmp-write=sleep:60000@3"), args...)

	bins, tmps := snapshotFiles(t, dir)
	if len(bins) < 2 {
		t.Fatalf("expected >= 2 durable snapshots before the kill, found %d", len(bins))
	}
	if len(tmps) != 1 {
		t.Fatalf("expected exactly 1 torn temp file after the kill, found %d", len(tmps))
	}

	// Flip a byte in the newest durable snapshot: resume must reject it on
	// checksum and fall back to the one before it.
	newest := bins[len(bins)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	out := runToCompletion(t, gnntrainBin, os.Environ(), append(args, "-resume")...)
	if !strings.Contains(out, "test=") {
		t.Fatalf("resumed run produced no report:\n%s", out)
	}
	if _, tmps := snapshotFiles(t, dir); len(tmps) != 1 {
		t.Fatalf("torn temp file count changed to %d; resume must leave it alone", len(tmps))
	}
}

// TestCrashResumeFingerprintIdentical is the acceptance-criteria check:
// for three fingerprinted model families — full-batch GCN, sampled
// GraphSAGE, and the SGC decoupled head — a run killed -9 mid-training and
// resumed from its durable snapshots must print a prediction fingerprint
// and accuracy report bitwise identical to a never-interrupted run, as
// verified by the cmd/gnnfingerprint harness.
func TestCrashResumeFingerprintIdentical(t *testing.T) {
	buildBinaries(t)
	for _, model := range []string{"gcn", "sage", "sgc"} {
		t.Run(model, func(t *testing.T) {
			base := []string{"-model", model, "-nodes", "250", "-epochs", "6", "-seed", "7"}
			want := runToCompletion(t, gnnfingBin, os.Environ(), base...)

			dir := t.TempDir()
			ckptArgs := append(base, "-checkpoint-dir", dir, "-checkpoint-every", "1")
			// Park the fifth batch step and kill -9 there: mid-epoch, with
			// several durable boundary snapshots already on disk.
			killAtMarker(t, gnnfingBin, faultEnv("train.batch=sleep:60000@5"), ckptArgs...)
			if bins, _ := snapshotFiles(t, filepath.Join(dir, model)); len(bins) == 0 {
				t.Fatal("kill left no durable snapshot to resume from")
			}

			got := runToCompletion(t, gnnfingBin, os.Environ(), append(ckptArgs, "-resume")...)
			if got != want {
				t.Fatalf("resumed fingerprint differs from uninterrupted run\nwant: %s got:  %s", want, got)
			}
		})
	}
}
