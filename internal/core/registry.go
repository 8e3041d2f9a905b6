// Package core is the library's organizing layer — the tutorial's Figure 1
// taxonomy turned into an API. It provides:
//
//   - Registry: a machine-checkable inventory of every taxonomy leaf from
//     Figure 1 mapped to the package and symbols implementing it, if any
//     (experiment F1 reports how many leaves are implemented).
//   - Pipeline: composable scalable-GNN construction — a chain of dataset
//     Transforms (the §3.3 "graph editing" stages: sparsify, coarsen,
//     augment) feeding any model Trainer (which internally may use the
//     §3.2 "analytics" stages: PPR, spectral filters, similarity), with
//     predictions lifted back to the original graph for honest evaluation.
package core

import "fmt"

// Category mirrors the two technique families of the taxonomy plus the
// classic-methods branch.
type Category string

// Categories of Figure 1.
const (
	CatClassic   Category = "classic"
	CatAnalytics Category = "analytics" // graph analytics & querying (§3.2)
	CatEditing   Category = "editing"   // graph editing (§3.3)
)

// Technique is one leaf of the Figure 1 taxonomy.
type Technique struct {
	// Section is the tutorial section covering the leaf (e.g. "3.2.1").
	Section string
	// Branch is the mid-level grouping ("Spectral Embeddings", …).
	Branch string
	// Leaf is the taxonomy leaf name as printed in Figure 1.
	Leaf string
	// Category is the top-level family.
	Category Category
	// Package is the implementing package path within this module.
	Package string
	// Symbols are the main entry points implementing the leaf: "Name" in
	// Package, "Type.Method", or "pkg.Name" in a sibling package, with an
	// optional parenthesised annotation. Empty when no code implements the
	// leaf.
	Symbols []string
	// Representative names the surveyed system(s) the implementation
	// follows.
	Representative string
}

// Registry returns the full taxonomy inventory. Order follows Figure 1
// left-to-right, top-to-bottom.
func Registry() []Technique {
	return []Technique{
		// Classic scalable GNN approaches (§3.1.2).
		{Section: "3.1.2", Branch: "Classic Method", Leaf: "Graph Partition", Category: CatClassic,
			Package: "internal/partition", Symbols: []string{"LDG", "Fennel", "Multilevel"}, Representative: "METIS/Fennel-style"},
		{Section: "3.1.2", Branch: "Classic Method", Leaf: "Graph Sampling", Category: CatClassic,
			Package: "internal/sampling", Symbols: []string{"NeighborSampler"}, Representative: "GraphSAGE"},
		{Section: "3.1.2", Branch: "Classic Method", Leaf: "Decoupled Propagation", Category: CatClassic,
			Package: "internal/models", Symbols: []string{"SGC", "APPNP", "SIGN"}, Representative: "SGC/APPNP/SIGN"},

		// Graph analytics & querying (§3.2).
		{Section: "3.2.1", Branch: "Spectral Embeddings", Leaf: "Combined Embeddings", Category: CatAnalytics,
			Package: "internal/spectral", Symbols: []string{"MultiFilter"}, Representative: "LD2"},
		{Section: "3.2.1", Branch: "Spectral Embeddings", Leaf: "Adaptive Basis", Category: CatAnalytics,
			Package: "internal/spectral", Representative: "UniFilter/AdaptKry"},
		{Section: "3.2.2", Branch: "Node-pair Similarity", Leaf: "Topology Similarity", Category: CatAnalytics,
			Package: "internal/simrank", Symbols: []string{"AllPairs", "Index.TopK", "rewire.Rewire"}, Representative: "SIMGA/DHGR"},
		{Section: "3.2.2", Branch: "Node-pair Similarity", Leaf: "Hub Labeling", Category: CatAnalytics,
			Package: "internal/hublabel", Symbols: []string{"Build", "Index.Query", "models.GraphTransformer"}, Representative: "CFGNN/DHIL-GT"},
		{Section: "3.2.3", Branch: "Graph Algebras", Leaf: "Matrix Decomposition", Category: CatAnalytics,
			Package: "internal/implicit", Symbols: []string{"Solver.SolveEig"}, Representative: "EIGNN"},
		{Section: "3.2.3", Branch: "Graph Algebras", Leaf: "Approximate Iteration", Category: CatAnalytics,
			Package: "internal/models", Symbols: []string{"ImplicitNet"}, Representative: "MGNNI"},
		{Section: "3.2.3", Branch: "Graph Algebras", Leaf: "Graph Simplification", Category: CatAnalytics,
			Package: "internal/coarsen", Representative: "SEIGNN"},

		// Graph editing (§3.3).
		{Section: "3.3.1", Branch: "Graph Sparsification", Leaf: "Node-level", Category: CatEditing,
			Package: "internal/sparsify", Representative: "SCARA/Unifews"},
		{Section: "3.3.1", Branch: "Graph Sparsification", Leaf: "Layer-level", Category: CatEditing,
			Package: "internal/sparsify", Symbols: []string{"TopKPerNode"}, Representative: "NIGCN/ATP"},
		{Section: "3.3.1", Branch: "Graph Sparsification", Leaf: "Subgraph-level", Category: CatEditing,
			Package: "internal/models", Symbols: []string{"GAMLP", "NAIPredict"}, Representative: "GAMLP/NAI"},
		{Section: "3.3.2", Branch: "Graph Sampling", Leaf: "Graph Expressiveness", Category: CatEditing,
			Package: "internal/sampling", Symbols: []string{"FastGCNSampler", "LadiesSampler"}, Representative: "FastGCN/LADIES/ADGNN"},
		{Section: "3.3.2", Branch: "Graph Sampling", Leaf: "Graph Variance", Category: CatEditing,
			Package: "internal/sampling", Symbols: []string{"LaborSampler", "MeasureVariance"}, Representative: "LABOR/HDSGNN/LMC"},
		{Section: "3.3.2", Branch: "Graph Sampling", Leaf: "Device Acceleration", Category: CatEditing,
			Package: "internal/sampling", Representative: "GIDS/NeutronOrch"},
		{Section: "3.3.3", Branch: "Subgraph Extraction", Leaf: "Subgraph Generation", Category: CatEditing,
			Package: "internal/subgraph", Symbols: []string{"EgoNet"}, Representative: "G3/TIGER"},
		{Section: "3.3.3", Branch: "Subgraph Extraction", Leaf: "Subgraph Storage", Category: CatEditing,
			Package: "internal/subgraph", Symbols: []string{"WalkStore", "dynamic.WalkMaintainer", "linkpred.WalkFeatureModel"}, Representative: "SUREL/GENTI"},
		{Section: "3.3.4", Branch: "Graph Coarsening", Leaf: "Structure-based", Category: CatEditing,
			Package: "internal/coarsen", Symbols: []string{"Coarsen(HeavyEdge)"}, Representative: "ConvMatch"},
		{Section: "3.3.4", Branch: "Graph Coarsening", Leaf: "Spectral-based", Category: CatEditing,
			Package: "internal/coarsen", Symbols: []string{"condense.Condense", "Coarsen(NormalizedHeavyEdge)"}, Representative: "GDEM/GC-SNTK"},
	}
}

// Verify checks registry integrity: every leaf has a section, package and
// name, no leaf appears twice, and the three categories are all populated.
// A leaf may have no symbols: Figure 1 is the paper's, whether or not this
// repository implements every leaf.
func Verify() error {
	reg := Registry()
	if len(reg) == 0 {
		return fmt.Errorf("core: empty registry")
	}
	seen := map[Category]int{}
	leaves := map[string]bool{}
	for i, t := range reg {
		if t.Section == "" || t.Package == "" || t.Leaf == "" {
			return fmt.Errorf("core: registry entry %d incomplete: %+v", i, t)
		}
		key := t.Branch + "/" + t.Leaf
		if leaves[key] {
			return fmt.Errorf("core: duplicate leaf %q", key)
		}
		leaves[key] = true
		seen[t.Category]++
	}
	for _, c := range []Category{CatClassic, CatAnalytics, CatEditing} {
		if seen[c] == 0 {
			return fmt.Errorf("core: category %q has no implementations", c)
		}
	}
	return nil
}
