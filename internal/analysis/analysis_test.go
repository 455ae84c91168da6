package analysis

import (
	"go/types"
	"testing"
)

func TestPackageBase(t *testing.T) {
	for _, tc := range []struct {
		path string
		name string
		want bool
	}{
		{"repro/internal/cart", "cart", true},
		{"cart", "cart", true},
		{"repro/internal/fascicle", "cart", false},
		{"repro/internal/cartoon", "cart", false},
	} {
		p := &Pass{Pkg: types.NewPackage(tc.path, "x")}
		if got := p.PackageBase(tc.name); got != tc.want {
			t.Errorf("PackageBase(%q) on %q = %v, want %v", tc.name, tc.path, got, tc.want)
		}
	}
}
