package ckpt

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Manager owns a checkpoint directory: it names snapshots so lexical
// order equals recency, retains only the newest KeepLast files, and on
// resume walks backwards past torn or corrupt snapshots to the newest
// loadable one.
type Manager struct {
	dir  string
	keep int
}

// NewManager creates (if needed) the checkpoint directory and returns a
// manager retaining the keep most recent snapshots (keep <= 0 means 2:
// the latest plus one fallback).
func NewManager(dir string, keep int) (*Manager, error) {
	if dir == "" {
		return nil, errors.New("ckpt: empty checkpoint dir")
	}
	if keep <= 0 {
		keep = 2
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: mkdir: %w", err)
	}
	return &Manager{dir: dir, keep: keep}, nil
}

// fileName encodes the cursor so that lexical order is recency order.
// A boundary snapshot (batch -1, "about to start epoch E") precedes every
// mid-epoch snapshot of epoch E, so batch is stored shifted by one:
// boundary → 000000, mid-epoch batch b → b+1.
func fileName(epoch, batch int) string {
	return fmt.Sprintf("ckpt-%010d-%06d.bin", epoch, batch+1)
}

// Save durably writes the snapshot and prunes old files beyond KeepLast.
// Prune errors are reported but the snapshot itself is already safe.
func (m *Manager) Save(s *Snapshot) (string, error) {
	start := time.Now()
	data := s.Encode()
	path := filepath.Join(m.dir, fileName(s.Epoch, s.Batch))
	if err := WriteFileDurable(path, data); err != nil {
		return "", err
	}
	bytesWritten.Add(int64(len(data)))
	snapshotsSaved.Add(1)
	saveSeconds.Observe(time.Since(start).Seconds())
	if err := m.prune(); err != nil {
		return path, fmt.Errorf("ckpt: prune after save: %w", err)
	}
	return path, nil
}

// list returns checkpoint basenames in the managed dir, oldest first.
// Temp files from interrupted writes are ignored (and thus also never
// pruned out from under a concurrent WriteFileDurable; they are tiny and
// rare, and the crash test asserts they are harmless).
func (m *Manager) list() ([]string, error) {
	ents, err := os.ReadDir(m.dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: read dir: %w", err)
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.Type().IsRegular() && strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ".bin") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *Manager) prune() error {
	names, err := m.list()
	if err != nil {
		return err
	}
	for len(names) > m.keep {
		if err := os.Remove(filepath.Join(m.dir, names[0])); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		names = names[1:]
	}
	return nil
}

// Latest returns the newest loadable snapshot whose fingerprint matches,
// walking backwards past files that fail to decode (torn writes cannot
// produce these — rename is atomic — but operators can, and the corrupt
// file is left in place for inspection). It returns (nil, "", nil) when
// the directory holds no checkpoints at all: a fresh start, not an error.
// If snapshots exist but every loadable one has a different fingerprint,
// it returns ErrFingerprint — resuming someone else's run must not
// silently start over.
func (m *Manager) Latest(fingerprint uint64) (*Snapshot, string, error) {
	return m.newest(&fingerprint)
}

// Newest is Latest for a reader that does not know the run yet: it returns
// the newest loadable snapshot whatever its fingerprint.
func (m *Manager) Newest() (*Snapshot, string, error) { return m.newest(nil) }

// newest is Latest's walk; a nil fingerprint matches every snapshot.
func (m *Manager) newest(fingerprint *uint64) (*Snapshot, string, error) {
	names, err := m.list()
	if err != nil {
		return nil, "", err
	}
	if len(names) == 0 {
		return nil, "", nil
	}
	var lastErr error
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(m.dir, names[i])
		data, err := os.ReadFile(path)
		if err != nil {
			lastErr = err
			fallbacks.Add(1)
			continue
		}
		s, err := Decode(data)
		if err != nil {
			lastErr = fmt.Errorf("%s: %w", names[i], err)
			fallbacks.Add(1)
			continue
		}
		if fingerprint != nil && s.Fingerprint != *fingerprint {
			lastErr = fmt.Errorf("%s: %w: snapshot %016x, run %016x",
				names[i], ErrFingerprint, s.Fingerprint, *fingerprint)
			fallbacks.Add(1)
			continue
		}
		return s, path, nil
	}
	return nil, "", fmt.Errorf("ckpt: no usable snapshot in %s (newest failure: %w)", m.dir, lastErr)
}
