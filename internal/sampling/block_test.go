package sampling

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"scalegnn/internal/graph"
	"scalegnn/internal/tensor"
)

// blockDigest is FNV-1a over everything a consumer can read from a block:
// Srcs in order, then per destination the neighbour count, the local
// indices and the IEEE bits of the weights. Any change of RNG draw order,
// source order or per-destination edge order changes it.
func blockDigest(b *Block) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:4], v)
		h.Write(buf[:4])
	}
	put32(uint32(len(b.Srcs)))
	for _, s := range b.Srcs {
		put32(uint32(s))
	}
	for i := range b.Dsts {
		put32(uint32(len(b.Neigh[i])))
		for _, s := range b.Neigh[i] {
			put32(uint32(s))
		}
		for _, w := range b.Weight(i) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestBlockDigests pins, for every block constructor, the exact block a
// fixed graph and seed produce (digests recorded before the constructors
// were folded onto one builder), and asserts once for all of them the
// structural invariants consumers rely on. The sparse G(n,m) fixture has
// isolated nodes among its destinations; the SBM one has degrees on both
// sides of the fan-out. (BarabasiAlbert is not used: it ranges over a map
// and so is not a function of its seed.)
func TestBlockDigests(t *testing.T) {
	sbm, _, err := graph.SBM(graph.SBMConfig{Nodes: 300, Blocks: 3, AvgDegree: 8, Homophily: 0.8}, tensor.NewRand(17))
	if err != nil {
		t.Fatal(err)
	}
	fixtures := []struct {
		name string
		g    *graph.CSR
		dsts []int32
	}{
		{"sbm", sbm, batchOf(300, 40)},
		{"er", graph.ErdosRenyi(80, 60, tensor.NewRand(23)), batchOf(80, 40)},
	}
	samplers := []struct {
		name string
		make func(g *graph.CSR) (BlockSampler, error)
	}{
		{"neighbor", func(g *graph.CSR) (BlockSampler, error) { return NewNeighborSampler(g, 3) }},
		{"labor", func(g *graph.CSR) (BlockSampler, error) { return NewLaborSampler(g, 3) }},
		{"poisson", func(g *graph.CSR) (BlockSampler, error) { return NewPoissonSampler(g, 3) }},
		{"fastgcn", func(g *graph.CSR) (BlockSampler, error) { return NewFastGCNSampler(g, 64) }},
		{"ladies", func(g *graph.CSR) (BlockSampler, error) { return NewLadiesSampler(g, 64) }},
	}
	want := map[string]uint64{
		"sbm/neighbor": 0xab424a35daed6cd3,
		"sbm/labor":    0x6d9569f2d02cfb68,
		"sbm/poisson":  0x2095cd9a0a3be589,
		"sbm/fastgcn":  0x00207af1f4b2b136,
		"sbm/ladies":   0x294008a610b7402d,
		"sbm/exact":    0xdcdc8369c48c8773,
		"er/neighbor":  0xfb459831d35b06f8,
		"er/labor":     0xe2b614564cc2ee33,
		"er/poisson":   0x7db0b7eb55e441de,
		"er/fastgcn":   0x2913a2afb79c2ded,
		"er/ladies":    0x9573b3a016780691,
		"er/exact":     0x85ca7298f73f0395,
	}

	check := func(t *testing.T, key string, b *Block) {
		t.Helper()
		if len(b.Neigh) != len(b.Dsts) || len(b.Offsets) != len(b.Dsts)+1 || b.Offsets[0] != 0 ||
			b.Offsets[len(b.Dsts)] != int64(len(b.Idx)) || len(b.W) != len(b.Idx) {
			t.Fatalf("%s: %d dsts, %d Neigh, %d Offsets, %d Idx, %d W", key, len(b.Dsts), len(b.Neigh), len(b.Offsets), len(b.Idx), len(b.W))
		}
		if len(b.Srcs) < len(b.Dsts) {
			t.Fatalf("%s: %d srcs < %d dsts", key, len(b.Srcs), len(b.Dsts))
		}
		for i, d := range b.Dsts {
			if b.Srcs[i] != d {
				t.Fatalf("%s: Srcs[%d] = %d, want dst %d", key, i, b.Srcs[i], d)
			}
			lo, hi := b.Offsets[i], b.Offsets[i+1]
			if lo > hi || len(b.Neigh[i]) != int(hi-lo) || len(b.Weight(i)) != int(hi-lo) ||
				(hi > lo && &b.Neigh[i][0] != &b.Idx[lo]) {
				t.Fatalf("%s: dst %d Neigh/Weight are not Idx/W[%d:%d]", key, i, lo, hi)
			}
			// A consumer appending to one destination's slice must not
			// write into the next destination's.
			if cap(b.Neigh[i]) != len(b.Neigh[i]) || cap(b.Weight(i)) != len(b.Weight(i)) {
				t.Fatalf("%s: dst %d slices have spare capacity (%d/%d, %d/%d)", key, i,
					len(b.Neigh[i]), cap(b.Neigh[i]), len(b.Weight(i)), cap(b.Weight(i)))
			}
			for _, w := range b.Weight(i) {
				if !(w > 0) {
					t.Fatalf("%s: dst %d has weight %v; aggregation skips a zero weight", key, i, w)
				}
			}
			for _, s := range b.Neigh[i] {
				if s < 0 || int(s) >= len(b.Srcs) {
					t.Fatalf("%s: dst %d index %d outside %d srcs", key, i, s, len(b.Srcs))
				}
			}
		}
		got := blockDigest(b)
		if w, ok := want[key]; !ok || got != w {
			t.Errorf("%s: digest %#016x, want %#016x", key, got, w)
		}
	}

	for _, fx := range fixtures {
		for _, sm := range samplers {
			s, err := sm.make(fx.g)
			if err != nil {
				t.Fatal(err)
			}
			check(t, fx.name+"/"+sm.name, s.SampleBlock(fx.dsts, tensor.NewRand(101)))
		}
		exact := exactBlock(fx.g, fx.dsts)
		check(t, fx.name+"/exact", exact)
		// exactBlock is the node-level sampler with nothing left to drop; it
		// draws no variates, so a nil RNG must do.
		full := (&NeighborSampler{G: fx.g, Fanout: fx.g.MaxDegree()}).SampleBlock(fx.dsts, nil)
		if blockDigest(full) != blockDigest(exact) {
			t.Errorf("%s: exactBlock differs from NeighborSampler at fanout = max degree", fx.name)
		}
	}
}
