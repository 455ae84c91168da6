package analysis

// FactStore carries per-package analyzer facts between passes. A fact
// is a Go value keyed by (package import path, analyzer name); only the
// producing analyzer and its consumers know its type. The driver keeps
// the whole run's facts in one store, filled in `go list -deps`
// dependency order.
type FactStore struct {
	m map[factKey]any
}

type factKey struct {
	pkgPath  string
	analyzer string
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: map[factKey]any{}}
}

// Get returns the fact analyzer exported for pkgPath, or nil.
func (s *FactStore) Get(pkgPath, analyzer string) any {
	if s == nil {
		return nil
	}
	return s.m[factKey{pkgPath, analyzer}]
}

// ExportFact is the call analyzers make from their Run function: it
// records fact as p.Analyzer's fact for the package under analysis,
// replacing any earlier one. A no-op when the driver attached no store.
func (p *Pass) ExportFact(fact any) {
	if p.Facts == nil {
		return
	}
	p.Facts.m[factKey{p.Pkg.Path(), p.Analyzer.Name}] = fact
}
