package cart

import (
	"fmt"

	"repro/internal/table"
)

// ValidateStructure checks a (typically freshly decoded) model against a
// schema: every split attribute must be in range, satisfy `usable` (e.g.
// be materialized), and match the split form's kind; categorical leaf and
// split-set codes must fit the corresponding dictionaries.
// This is what makes running an untrusted model safe.
func (m *Model) ValidateStructure(schema table.Schema, dictSizes []int, usable func(int) bool) error {
	if m.Target < 0 || m.Target >= len(schema) {
		return fmt.Errorf("cart: model target %d out of range", m.Target)
	}
	if m.TargetKind != schema[m.Target].Kind {
		return fmt.Errorf("cart: model kind mismatch for attribute %d", m.Target)
	}
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n == nil {
			return fmt.Errorf("cart: nil node")
		}
		if n.Leaf {
			if m.TargetKind == table.Categorical &&
				(n.CatValue < 0 || int(n.CatValue) >= dictSizes[m.Target]) {
				return fmt.Errorf("cart: leaf code %d outside dictionary of attribute %d", n.CatValue, m.Target)
			}
			return nil
		}
		if n.SplitAttr < 0 || n.SplitAttr >= len(schema) {
			return fmt.Errorf("cart: split attribute %d out of range", n.SplitAttr)
		}
		if !usable(n.SplitAttr) {
			return fmt.Errorf("cart: split attribute %d is not materialized", n.SplitAttr)
		}
		wantCat := schema[n.SplitAttr].Kind == table.Categorical
		if n.SplitIsCat != wantCat {
			return fmt.Errorf("cart: split form mismatch on attribute %d", n.SplitAttr)
		}
		if n.SplitIsCat {
			for _, c := range n.SplitLeft {
				if c < 0 || int(c) >= dictSizes[n.SplitAttr] {
					return fmt.Errorf("cart: split code %d outside dictionary of attribute %d", c, n.SplitAttr)
				}
			}
		}
		if err := walk(n.Left); err != nil {
			return err
		}
		return walk(n.Right)
	}
	return walk(m.Root)
}
