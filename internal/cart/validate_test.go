package cart

import (
	"testing"

	"repro/internal/table"
)

func validateFixture() (table.Schema, []int) {
	schema := table.Schema{
		{Name: "n0", Kind: table.Numeric},
		{Name: "n1", Kind: table.Numeric},
		{Name: "c2", Kind: table.Categorical},
		{Name: "c3", Kind: table.Categorical},
	}
	dictSizes := []int{0, 0, 3, 2}
	return schema, dictSizes
}

func allMat(int) bool { return true }

func TestValidateStructureAccepts(t *testing.T) {
	schema, dicts := validateFixture()
	m := &Model{Target: 3, TargetKind: table.Categorical, Root: &Node{
		SplitAttr: 0, SplitValue: 1.5,
		Left: &Node{SplitAttr: 2, SplitIsCat: true, SplitLeft: []int32{0, 2},
			Left:  &Node{Leaf: true, CatValue: 0},
			Right: &Node{Leaf: true, CatValue: 1}},
		Right: &Node{Leaf: true, CatValue: 1},
	}}
	if err := m.ValidateStructure(schema, dicts, allMat); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
}

func TestValidateStructureRejects(t *testing.T) {
	schema, dicts := validateFixture()
	leaf := func(code int32) *Node { return &Node{Leaf: true, CatValue: code} }
	cases := []struct {
		name   string
		m      *Model
		usable func(int) bool
	}{
		{"target out of range",
			&Model{Target: 9, TargetKind: table.Categorical, Root: leaf(0)}, allMat},
		{"kind mismatch",
			&Model{Target: 0, TargetKind: table.Categorical, Root: leaf(0)}, allMat},
		{"split attr out of range",
			&Model{Target: 3, TargetKind: table.Categorical, Root: &Node{
				SplitAttr: 7, Left: leaf(0), Right: leaf(1)}}, allMat},
		{"split attr not materialized",
			&Model{Target: 3, TargetKind: table.Categorical, Root: &Node{
				SplitAttr: 0, Left: leaf(0), Right: leaf(1)}},
			func(a int) bool { return a != 0 }},
		{"split form mismatch (numeric split on categorical attr)",
			&Model{Target: 3, TargetKind: table.Categorical, Root: &Node{
				SplitAttr: 2, SplitIsCat: false, Left: leaf(0), Right: leaf(1)}}, allMat},
		{"split code outside dictionary",
			&Model{Target: 3, TargetKind: table.Categorical, Root: &Node{
				SplitAttr: 2, SplitIsCat: true, SplitLeft: []int32{9},
				Left: leaf(0), Right: leaf(1)}}, allMat},
		{"leaf code outside dictionary",
			&Model{Target: 3, TargetKind: table.Categorical, Root: leaf(9)}, allMat},
		{"nil child",
			&Model{Target: 1, TargetKind: table.Numeric, Root: &Node{
				SplitAttr: 0, Left: &Node{Leaf: true}}}, allMat},
	}
	for _, c := range cases {
		if err := c.m.ValidateStructure(schema, dicts, c.usable); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
