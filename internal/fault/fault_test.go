//go:build !nofault

package fault

import (
	"errors"
	"testing"
	"time"
)

func TestDisarmedIsNil(t *testing.T) {
	Reset()
	if err := Inject("nothing.here"); err != nil {
		t.Fatalf("disarmed Inject returned %v", err)
	}
}

func TestErrorAndDropActions(t *testing.T) {
	t.Cleanup(Reset)
	if err := Set("a", "error"); err != nil {
		t.Fatal(err)
	}
	if err := Set("b", "drop"); err != nil {
		t.Fatal(err)
	}
	if err := Inject("a"); !errors.Is(err, ErrInjected) {
		t.Fatalf("error action: got %v", err)
	}
	if err := Inject("b"); !errors.Is(err, ErrDrop) {
		t.Fatalf("drop action: got %v", err)
	}
	// Unarmed sites pass through even while others are armed.
	if err := Inject("c"); err != nil {
		t.Fatalf("unrelated site: got %v", err)
	}
}

func TestNthHitTrigger(t *testing.T) {
	t.Cleanup(Reset)
	if err := Set("s", "error@3"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		err := Inject("s")
		if i == 3 && !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d: want ErrInjected, got %v", i, err)
		}
		if i != 3 && err != nil {
			t.Fatalf("hit %d: want nil, got %v", i, err)
		}
	}
	if got := Hits("s"); got != 5 {
		t.Fatalf("Hits = %d, want 5", got)
	}
}

func TestSleepAction(t *testing.T) {
	t.Cleanup(Reset)
	if err := Set("s", "sleep:20"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Inject("s"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("sleep returned after %v, want >= 20ms", d)
	}
}

func TestClearDisarms(t *testing.T) {
	t.Cleanup(Reset)
	if err := Set("s", "error"); err != nil {
		t.Fatal(err)
	}
	Reset()
	if err := Inject("s"); err != nil {
		t.Fatalf("cleared site fired: %v", err)
	}
}

func TestSetFromEnv(t *testing.T) {
	t.Cleanup(Reset)
	if err := setFromEnv("x=error; y=drop@2 ;;"); err != nil {
		t.Fatal(err)
	}
	if err := Inject("x"); !errors.Is(err, ErrInjected) {
		t.Fatalf("x: got %v", err)
	}
	if err := Inject("y"); err != nil {
		t.Fatalf("y hit 1: got %v", err)
	}
	if err := Inject("y"); !errors.Is(err, ErrDrop) {
		t.Fatalf("y hit 2: got %v", err)
	}
}

func TestBadSpecsRejected(t *testing.T) {
	t.Cleanup(Reset)
	for _, spec := range []string{"", "explode", "sleep", "sleep:abc", "sleep:-1", "error:5", "error@0", "error@x"} {
		if err := Set("s", spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	if err := setFromEnv("justasite"); err == nil {
		t.Error("binding without = accepted")
	}
	if err := Set("", "error"); err == nil {
		t.Error("empty site accepted")
	}
}

func TestPanicAction(t *testing.T) {
	t.Cleanup(Reset)
	if err := Set("s", "panic"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("panic action did not panic")
		}
	}()
	_ = Inject("s")
}

func TestConcurrentInject(t *testing.T) {
	t.Cleanup(Reset)
	if err := Set("s", "error@50"); err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 4)
	for w := 0; w < 4; w++ {
		//lint:ignore naked-go test exercises registry thread-safety under -race
		go func() {
			fired := 0
			for i := 0; i < 100; i++ {
				if Inject("s") != nil {
					fired++
				}
			}
			done <- fired
		}()
	}
	total := 0
	for w := 0; w < 4; w++ {
		total += <-done
	}
	if total != 1 {
		t.Fatalf("@n trigger fired %d times across goroutines, want exactly 1", total)
	}
}
