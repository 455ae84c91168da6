package vrange

import (
	"go/ast"
	"go/types"
)

// sourceBit marks wire-derived values in a Deriv mask; lower bits mark
// parameter origins (the same convention as the taint engine's masks).
const sourceBit = 62

// Deriv is the origin set of a value — which parameters and whether
// the untrusted wire may have produced it — tracked through
// assignments with no guard kills: a bounds check changes what a value
// can be, never where it came from.
type Deriv struct {
	mask uint64
}

// FromWire reports an untrusted wire read among the origins.
func (d Deriv) FromWire() bool { return d.mask&(1<<sourceBit) != 0 }

// ParamBits lists parameter-index origins, ascending.
func (d Deriv) ParamBits() []int {
	var out []int
	for i := 0; i < sourceBit; i++ {
		if d.mask&(1<<uint(i)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

func unionD(ds ...Deriv) Deriv {
	var out Deriv
	for _, d := range ds {
		out.mask |= d.mask
	}
	return out
}

type varSet map[*types.Var]bool

func (s varSet) clone() varSet {
	if s == nil {
		return nil
	}
	out := make(varSet, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func intersectSet(a, b varSet) varSet {
	var out varSet
	for v := range a {
		if b[v] {
			if out == nil {
				out = varSet{}
			}
			out[v] = true
		}
	}
	return out
}

func equalSet(a, b varSet) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// lenTokenKey is an opaque length symbol minted from a stable AST
// anchor (a guard condition, a multi-result call) — deterministic
// across solver iterations, which the fixpoint's state equality needs.
type lenTokenKey struct {
	node ast.Node
	idx  int
}

// symSet is a set of length symbols: *types.Var entries (len(s) equals
// that variable's value) and lenTokenKey entries (opaque equality
// classes). Two slices with intersecting sets have provably equal
// lengths.
type symSet map[any]bool

func (s symSet) clone() symSet {
	if s == nil {
		return nil
	}
	out := make(symSet, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func intersectSyms(a, b symSet) symSet {
	var out symSet
	for k := range a {
		if b[k] {
			if out == nil {
				out = symSet{}
			}
			out[k] = true
		}
	}
	return out
}

func intersectsSyms(a, b symSet) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}

func equalSyms(a, b symSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// VState is the per-program-point abstract state. All maps are sparse:
// an absent interval entry means the variable's machine type range, an
// absent relation means "unknown", an absent length interval means
// [0, +inf]. nil *VState is the solver's bottom (unreachable).
type VState struct {
	// iv: proved interval per integer variable.
	iv map[*types.Var]Interval
	// lt, le: v < w / v ≤ w over mathematical values, valid while
	// neither side is reassigned.
	lt, le map[*types.Var]varSet
	// ltLen, leLen: v < len(s) / v ≤ len(s) for slice/string variable
	// s; killed when v or s is reassigned, preserved when s only grows
	// (self-append).
	ltLen, leLen map[*types.Var]varSet
	// lenSyms: the length-symbol set of each slice/string variable,
	// kept transitively closed — any two slices whose sets intersect
	// share all symbols, so len-equality is plain set intersection.
	lenSyms map[*types.Var]symSet
	// lenIv: proved interval of len(s).
	lenIv map[*types.Var]Interval
	// dv: derivation (wire/param origin) per integer variable.
	dv map[*types.Var]Deriv
	// pristine: parameters not reassigned since entry — the soundness
	// gate for "result ≤ param(p)" summaries and param-indexed sites.
	pristine varSet
}

func newVState() *VState {
	return &VState{
		iv:       map[*types.Var]Interval{},
		lt:       map[*types.Var]varSet{},
		le:       map[*types.Var]varSet{},
		ltLen:    map[*types.Var]varSet{},
		leLen:    map[*types.Var]varSet{},
		lenSyms:  map[*types.Var]symSet{},
		lenIv:    map[*types.Var]Interval{},
		dv:       map[*types.Var]Deriv{},
		pristine: varSet{},
	}
}

func (s *VState) clone() *VState {
	out := &VState{
		iv:       make(map[*types.Var]Interval, len(s.iv)),
		lt:       make(map[*types.Var]varSet, len(s.lt)),
		le:       make(map[*types.Var]varSet, len(s.le)),
		ltLen:    make(map[*types.Var]varSet, len(s.ltLen)),
		leLen:    make(map[*types.Var]varSet, len(s.leLen)),
		lenSyms:  make(map[*types.Var]symSet, len(s.lenSyms)),
		lenIv:    make(map[*types.Var]Interval, len(s.lenIv)),
		dv:       make(map[*types.Var]Deriv, len(s.dv)),
		pristine: s.pristine.clone(),
	}
	if out.pristine == nil {
		out.pristine = varSet{}
	}
	for k, v := range s.iv {
		out.iv[k] = v
	}
	for k, v := range s.lt {
		out.lt[k] = v.clone()
	}
	for k, v := range s.le {
		out.le[k] = v.clone()
	}
	for k, v := range s.ltLen {
		out.ltLen[k] = v.clone()
	}
	for k, v := range s.leLen {
		out.leLen[k] = v.clone()
	}
	for k, v := range s.lenSyms {
		out.lenSyms[k] = v.clone()
	}
	for k, v := range s.lenIv {
		out.lenIv[k] = v
	}
	for k, v := range s.dv {
		out.dv[k] = v
	}
	return out
}

// get is the effective interval of an integer variable.
func (s *VState) get(v *types.Var) Interval {
	if i, ok := s.iv[v]; ok {
		return i
	}
	return MachineRange(v.Type())
}

// getLen is the effective interval of len(sl).
func (s *VState) getLen(sl *types.Var) Interval {
	if i, ok := s.lenIv[sl]; ok {
		return i
	}
	return Interval{0, PosInf}
}

// setIv stores an interval, dropping entries at the machine default.
func (s *VState) setIv(v *types.Var, i Interval) {
	if i == MachineRange(v.Type()) {
		delete(s.iv, v)
		return
	}
	s.iv[v] = i
}

// setLenIv stores a length interval, dropping entries at the default.
func (s *VState) setLenIv(sl *types.Var, i Interval) {
	if i == (Interval{0, PosInf}) {
		delete(s.lenIv, sl)
		return
	}
	s.lenIv[sl] = i
}

func (s *VState) addRel(m map[*types.Var]varSet, a, b *types.Var) {
	set := m[a]
	if set == nil {
		set = varSet{}
		m[a] = set
	}
	set[b] = true
}

// addLenSym records that len(sl) equals sym (a variable or an opaque
// token) and re-closes the equality classes: every slice whose set
// intersects sl's new set absorbs the union, so sameLen stays a plain
// intersection test under transitivity (make(n)+make(σ) twins chained
// through a shared symbol).
func (s *VState) addLenSym(sl *types.Var, sym any) {
	set := s.lenSyms[sl].clone()
	if set == nil {
		set = symSet{}
	}
	set[sym] = true
	for changed := true; changed; {
		changed = false
		for other, os := range s.lenSyms {
			if other == sl || !intersectsSyms(os, set) {
				continue
			}
			for k := range os {
				if !set[k] {
					set[k] = true
					changed = true
				}
			}
		}
	}
	for other, os := range s.lenSyms {
		if other != sl && intersectsSyms(os, set) && !equalSyms(os, set) {
			s.lenSyms[other] = set.clone()
		}
	}
	s.lenSyms[sl] = set
}

// mergeLen records a len(a) == len(b) guard via a shared token minted
// from the guard's AST node (stable across solver iterations).
func (s *VState) mergeLen(a, b *types.Var, tok lenTokenKey) {
	s.addLenSym(a, tok)
	s.addLenSym(b, tok)
}

// shareLen records a slice copy v = w: identical lengths. When w has
// no symbols yet, a token minted from the assignment's AST node links
// the two.
func (s *VState) shareLen(v, w *types.Var, anchor ast.Node) {
	if len(s.lenSyms[w]) == 0 {
		s.addLenSym(w, lenTokenKey{node: anchor})
	}
	for sym := range s.lenSyms[w] {
		s.addLenSym(v, sym)
		break // sets are closed; one shared symbol pulls in the rest
	}
}

// sameLen reports provably equal lengths.
func (s *VState) sameLen(a, b *types.Var) bool {
	if a == b {
		return true
	}
	return intersectsSyms(s.lenSyms[a], s.lenSyms[b])
}

// copyRels duplicates w's ordering facts onto v after a wrap-free copy
// v := w, and records v ≤ w ∧ w ≤ v.
func (s *VState) copyRels(v, w *types.Var) {
	if set := s.lt[w]; len(set) > 0 {
		s.lt[v] = set.clone()
	}
	le := s.le[w].clone()
	if le == nil {
		le = varSet{}
	}
	le[w] = true
	s.le[v] = le
	s.addRel(s.le, w, v)
	if set := s.ltLen[w]; len(set) > 0 {
		s.ltLen[v] = set.clone()
	}
	if set := s.leLen[w]; len(set) > 0 {
		s.leLen[v] = set.clone()
	}
}

// killInt drops every fact about an integer variable being reassigned:
// its interval, its derivation, relations on either side, its pristine
// mark, and its appearances as a length symbol.
func (s *VState) killInt(v *types.Var) {
	delete(s.iv, v)
	delete(s.dv, v)
	delete(s.lt, v)
	delete(s.le, v)
	delete(s.ltLen, v)
	delete(s.leLen, v)
	delete(s.pristine, v)
	for a, set := range s.lt {
		if set[v] {
			set = set.clone()
			delete(set, v)
			s.lt[a] = set
		}
	}
	for a, set := range s.le {
		if set[v] {
			set = set.clone()
			delete(set, v)
			s.le[a] = set
		}
	}
	for sl, set := range s.lenSyms {
		if set[v] {
			set = set.clone()
			delete(set, v)
			if len(set) == 0 {
				delete(s.lenSyms, sl)
			} else {
				s.lenSyms[sl] = set
			}
		}
	}
}

// killSlice drops every fact about a slice variable being reassigned.
func (s *VState) killSlice(sl *types.Var) {
	delete(s.lenIv, sl)
	delete(s.lenSyms, sl)
	delete(s.pristine, sl)
	for a, set := range s.ltLen {
		if set[sl] {
			set = set.clone()
			delete(set, sl)
			s.ltLen[a] = set
		}
	}
	for a, set := range s.leLen {
		if set[sl] {
			set = set.clone()
			delete(set, sl)
			s.leLen[a] = set
		}
	}
}

// growLen records a self-append: len(sl) only grew, so v < len(sl) and
// v ≤ len(sl) facts survive, but exact length bindings do not.
func (s *VState) growLen(sl *types.Var) {
	delete(s.lenSyms, sl)
	delete(s.pristine, sl)
	if i, ok := s.lenIv[sl]; ok {
		s.setLenIv(sl, Interval{i.Lo, PosInf})
	}
}

// join merges two reachable states (nil handled by the problem).
func joinState(a, b *VState) *VState {
	out := newVState()
	// Intervals: hull of effective values, stored sparsely.
	for v := range a.iv {
		j := a.get(v).Join(b.get(v))
		if j != MachineRange(v.Type()) {
			out.iv[v] = j
		}
	}
	for v := range b.iv {
		if _, done := out.iv[v]; done {
			continue
		}
		j := a.get(v).Join(b.get(v))
		if j != MachineRange(v.Type()) {
			out.iv[v] = j
		}
	}
	// Relations hold only if proved on both paths.
	joinRel := func(ra, rb map[*types.Var]varSet, dst map[*types.Var]varSet) {
		for v, set := range ra {
			if o := intersectSet(set, rb[v]); o != nil {
				dst[v] = o
			}
		}
	}
	joinRel(a.lt, b.lt, out.lt)
	joinRel(a.le, b.le, out.le)
	joinRel(a.ltLen, b.ltLen, out.ltLen)
	joinRel(a.leLen, b.leLen, out.leLen)
	for sl, set := range a.lenSyms {
		if o := intersectSyms(set, b.lenSyms[sl]); o != nil {
			out.lenSyms[sl] = o
		}
	}
	for sl := range a.lenIv {
		if _, ok := b.lenIv[sl]; !ok {
			continue
		}
		j := a.getLen(sl).Join(b.getLen(sl))
		if j != (Interval{0, PosInf}) {
			out.lenIv[sl] = j
		}
	}
	// Derivations are a may-property: union.
	for v, d := range a.dv {
		out.dv[v] = d
	}
	for v, d := range b.dv {
		out.dv[v] = unionD(out.dv[v], d)
	}
	out.pristine = intersectSet(a.pristine, b.pristine)
	if out.pristine == nil {
		out.pristine = varSet{}
	}
	return out
}

func equalState(a, b *VState) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.iv) != len(b.iv) || len(a.lenIv) != len(b.lenIv) ||
		len(a.dv) != len(b.dv) || !equalSet(a.pristine, b.pristine) {
		return false
	}
	for v, i := range a.iv {
		if b.iv[v] != i {
			return false
		}
	}
	for sl, i := range a.lenIv {
		if b.lenIv[sl] != i {
			return false
		}
	}
	for v, d := range a.dv {
		if b.dv[v].mask != d.mask {
			return false
		}
	}
	// Sparse maps may hold empty sets after kills; compare effective
	// contents.
	for sl, set := range a.lenSyms {
		if len(set) > 0 && !equalSyms(set, b.lenSyms[sl]) {
			return false
		}
	}
	for sl, set := range b.lenSyms {
		if len(set) > 0 && !equalSyms(set, a.lenSyms[sl]) {
			return false
		}
	}
	equalRel := func(ra, rb map[*types.Var]varSet) bool {
		for v, set := range ra {
			if len(set) > 0 && !equalSet(set, rb[v]) {
				return false
			}
		}
		for v, set := range rb {
			if len(set) > 0 && !equalSet(set, ra[v]) {
				return false
			}
		}
		return true
	}
	return equalRel(a.lt, b.lt) && equalRel(a.le, b.le) &&
		equalRel(a.ltLen, b.ltLen) && equalRel(a.leLen, b.leLen)
}

// widenState applies interval widening entry-wise; relations and
// symbol sets pass through intersection (they shrink monotonically, no
// widening needed), derivations through union.
func widenState(prev, next *VState) *VState {
	out := next.clone()
	// Widen over the union of both sparse maps: an entry present only
	// in prev must still be widened against next's (machine-range)
	// default — dropping it would let the bound re-sharpen on the next
	// visit and the fixpoint oscillate forever. The widened interval is
	// met with the machine range so states stay canonical: for 64-bit
	// types the machine bounds are the lattice sentinels, so the meet
	// never undoes a blown bound.
	for v := range prev.iv {
		if _, ok := out.iv[v]; !ok {
			out.iv[v] = Top() // placeholder; overwritten below
		}
	}
	for v := range out.iv {
		w := prev.get(v).Widen(next.get(v))
		out.setIv(v, meetType(w, v.Type()))
	}
	for sl := range prev.lenIv {
		if _, ok := out.lenIv[sl]; !ok {
			out.lenIv[sl] = Top()
		}
	}
	for sl := range out.lenIv {
		w := prev.getLen(sl).Widen(next.getLen(sl))
		if w == (Interval{0, PosInf}) {
			delete(out.lenIv, sl)
		} else {
			out.lenIv[sl] = w
		}
	}
	joinRelInto := func(rp, rn map[*types.Var]varSet, dst map[*types.Var]varSet) {
		for v := range dst {
			if o := intersectSet(rn[v], rp[v]); o != nil {
				dst[v] = o
			} else {
				delete(dst, v)
			}
		}
	}
	joinRelInto(prev.lt, next.lt, out.lt)
	joinRelInto(prev.le, next.le, out.le)
	joinRelInto(prev.ltLen, next.ltLen, out.ltLen)
	joinRelInto(prev.leLen, next.leLen, out.leLen)
	for sl := range out.lenSyms {
		if o := intersectSyms(next.lenSyms[sl], prev.lenSyms[sl]); o != nil {
			out.lenSyms[sl] = o
		} else {
			delete(out.lenSyms, sl)
		}
	}
	for v, d := range prev.dv {
		out.dv[v] = unionD(out.dv[v], d)
	}
	if o := intersectSet(out.pristine, prev.pristine); o != nil {
		out.pristine = o
	} else {
		out.pristine = varSet{}
	}
	return out
}
