package cart

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/floats"
	"repro/internal/table"
)

// predictRef is the pointer walk the flattened walk is checked against:
// it follows Left and Right through takeLeft, one node at a time.
func predictRef(m *Model, t *table.Table, r int) (float64, int32) {
	n := m.Root
	for !n.Leaf {
		if n.takeLeft(t, r) {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.NumValue, n.CatValue
}

// reconstruct runs m.Reconstruct over tb, patching in outliers, into a
// fresh target column.
func reconstruct(m *Model, tb *table.Table, outliers []Outlier) *table.Column {
	cols := columns(tb)
	out := &table.Column{Kind: m.TargetKind, Dict: tb.Col(m.Target).Dict}
	if m.TargetKind == table.Numeric {
		out.Floats = make([]float64, tb.NumRows())
	} else {
		out.Codes = make([]int32, tb.NumRows())
	}
	cols[m.Target] = out
	m.Reconstruct(cols, outliers)
	return out
}

// checkFlatWalk fails unless the flattened walk predicts every row of tb
// exactly as the pointer walk does, and returns how many nodes of each
// kind the flattened tree has.
func checkFlatWalk(t *testing.T, name string, m *Model, tb *table.Table) map[uint8]int {
	t.Helper()
	f := m.flatten(columns(tb))
	kinds := map[uint8]int{}
	for _, n := range f {
		kinds[n.kind]++
	}
	if len(f) != m.NumNodes() {
		t.Errorf("%s: flattened %d nodes, tree has %d", name, len(f), m.NumNodes())
	}
	for r := 0; r < tb.NumRows(); r++ {
		f1, c1 := predictRef(m, tb, r)
		f2, c2 := f.predict(r)
		if !floats.SameBits(f1, f2) || c1 != c2 {
			t.Fatalf("%s: row %d: flat walk predicts (%g, %d), pointer walk (%g, %d)", name, r, f2, c2, f1, c1)
		}
	}
	return kinds
}

// TestFlatWalkMatchesPointerWalk checks the flattened walk against the
// pointer walk on trees built over datagen tables, on the trees
// FuzzDecodeModel seeds its corpus with, and on hand-built trees that
// reach both categorical split forms, codes past a bitmap's largest left
// code, and single leaves.
func TestFlatWalkMatchesPointerWalk(t *testing.T) {
	kinds := map[uint8]int{}
	count := func(k map[uint8]int) {
		for kind, n := range k {
			kinds[kind] += n
		}
	}

	for _, ds := range []struct {
		name string
		gen  func(int, int64) *table.Table
	}{
		{"cdr", datagen.CDR},
		{"census", datagen.Census},
		{"corel", datagen.Corel},
	} {
		tb := ds.gen(1500, 1)
		tol := table.UniformTolerances(tb, 0.01, 0.05)
		cm := NewCostModel(tb)
		for target := 0; target < tb.NumCols(); target++ {
			var cands []int
			for a := 0; a < tb.NumCols(); a++ {
				if a != target {
					cands = append(cands, a)
				}
			}
			m, _, err := Build(context.Background(), NewSample(tb), target, cands, tol[target].Value, cm, Config{})
			if err != nil {
				t.Fatal(err)
			}
			count(checkFlatWalk(t, fmt.Sprintf("%s target %d", ds.name, target), m, tb))
		}
	}

	// FuzzDecodeModel's seeds: the valid encoding of this tree, and the
	// same bytes with the target's low bit flipped. The others fail to
	// decode.
	tb := correlatedTable(rand.New(rand.NewSource(1)), 100)
	m, _, err := Build(context.Background(), NewSample(tb), 1, []int{0}, 2, NewCostModel(tb), Config{})
	if err != nil {
		t.Fatal(err)
	}
	valid, err := m.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	mutated := append([]byte(nil), valid...)
	mutated[0] ^= 0x01
	for i, data := range [][]byte{valid, mutated} {
		dm, err := DecodeModel(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		count(checkFlatWalk(t, fmt.Sprintf("fuzz seed %d", i), dm, tb))
	}

	// g has 200 codes and every row takes a different one mod 200, so
	// each split below sees codes on both sides, and above its largest
	// left code.
	schema := table.Schema{{Name: "g", Kind: table.Categorical}, {Name: "x", Kind: table.Numeric}}
	b := table.MustBuilder(schema)
	for i := 0; i < 1000; i++ {
		b.MustAppendRow(fmt.Sprintf("g%03d", i%200), float64(i%17))
	}
	hand := b.MustBuild()
	numLeaf := func(v float64) *Node { return &Node{Leaf: true, NumValue: v} }
	catSplitOn := func(left []int32, l, r *Node) *Node {
		return &Node{SplitAttr: 0, SplitIsCat: true, SplitLeft: left, Left: l, Right: r}
	}
	catModel := &Model{Target: 0, TargetKind: table.Categorical, Root: &Node{Leaf: true, CatValue: 3}}
	count(checkFlatWalk(t, "categorical leaf", catModel, hand))
	for name, root := range map[string]*Node{
		"numeric leaf": numLeaf(7),
		// Largest left code 64: two words for five codes.
		"bitmap": catSplitOn([]int32{1, 3, 5, 63, 64}, numLeaf(1), numLeaf(2)),
		// One code in the third word: too sparse for a bitmap.
		"sorted search": catSplitOn([]int32{150}, numLeaf(1), numLeaf(2)),
		"empty set":     catSplitOn(nil, numLeaf(1), numLeaf(2)),
		"unsorted set":  catSplitOn([]int32{9, 2}, numLeaf(1), numLeaf(2)),
		"nested": {SplitAttr: 1, SplitValue: 8,
			Left:  catSplitOn([]int32{0, 1, 2, 3}, numLeaf(1), catSplitOn([]int32{199}, numLeaf(2), numLeaf(3))),
			Right: catSplitOn([]int32{10, 20, 30, 40, 50, 60}, numLeaf(4), numLeaf(5))},
	} {
		count(checkFlatWalk(t, name, &Model{Target: 1, TargetKind: table.Numeric, Root: root}, hand))
	}

	for kind, name := range map[uint8]string{flatLeaf: "leaf", flatNum: "numeric split", flatBits: "bitmap split", flatSet: "sorted-search split"} {
		if kinds[kind] == 0 {
			t.Errorf("no %s was checked", name)
		}
	}
}

// TestHugeSplitCodesStayLinear decodes a model whose every split tests
// code 2^24−1 and reconstructs a column with it. A bitmap per split
// would cost 2 MB each; the flattened walk keeps the sorted search, so
// decoding and reconstruction stay within the decoder's 4 MB bound.
func TestHugeSplitCodesStayLinear(t *testing.T) {
	// A complete tree of depth 7: 63 splits on attribute 0, each with the
	// one-code set {2^24−1}.
	w := new(wire).uvarint(1).b1(byte(table.Numeric))
	var tree func(depth int)
	tree = func(depth int) {
		if depth == 1 {
			w.b1(tagLeafNum, 0, 0, 0x80, 0x3f) // 1.0
			return
		}
		w.b1(tagInternalCat).uvarint(0, 1, 1<<24-1)
		tree(depth - 1)
		tree(depth - 1)
	}
	tree(7)

	schema := table.Schema{{Name: "g", Kind: table.Categorical}, {Name: "y", Kind: table.Numeric}}
	b := table.MustBuilder(schema)
	for i := 0; i < 4096; i++ {
		b.MustAppendRow("v", float64(i))
	}
	tb := b.MustBuild()

	var rec *table.Column
	delta := allocDelta(func() {
		m, err := DecodeModel(bytes.NewReader(w.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		rec = reconstruct(m, tb, nil)
	})
	for r, v := range rec.Floats {
		if !floats.SameBits(v, 1) {
			t.Fatalf("row %d reconstructed %g, want 1", r, v)
		}
	}
	const limit = 1 << 22
	if delta > limit {
		t.Errorf("decoding and reconstructing allocated %d bytes, want < %d", delta, limit)
	}
}
