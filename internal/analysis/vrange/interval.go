// Package vrange is spartanvet's value-range layer: an interval
// abstract domain over Go integer expressions, run as a forward
// dataflow.Problem on the CFGs of package cfg with branch refinement
// (via the solver's EdgeTransfer hook) and loop widening (via Widen).
//
// The engine tracks, per program point:
//
//   - an interval [Lo, Hi] for every integer variable, sharpened by
//     constants, arithmetic, conversions, len/cap, and comparison
//     guards (`if n > lim.MaxRows { return err }` leaves n ≤ MaxRows
//     on the fall-through edge);
//   - a small relational layer: v < w, v ≤ w, v < len(s), v ≤ len(s),
//     and len-equality classes (`len(a) == len(b)` guards, twin
//     `make`s with the same size), which is what actually discharges
//     the decoder's index proofs — the bounds there are dynamic
//     (`ix >= dlen`, `a >= uint64(ncols)`), not constant;
//   - a wire-derivation mark per variable: whether the value may
//     originate from an untrusted wire read (binary.ReadUvarint and
//     friends), tracked through assignments with no guard kills —
//     unlike taint, a guard does not launder a value's origin, it only
//     (maybe) bounds it.
//
// Per-function results feed two consumers: the range-aware
// taintalloc/sizeoverflow sink filter in package summary (proved
// intervals replace syntactic clamp detection), and the "rangesummary"
// package fact, which propagates result ranges, min-of-params clamp
// shapes and same-length results bottom-up over call-graph SCCs, across
// package boundaries through the unitchecker's vetx files.
package vrange

import (
	"fmt"
	"go/types"
	"math"
	"math/bits"
)

// NegInf and PosInf are the sentinel endpoint values: an interval with
// Lo == NegInf is unbounded below, Hi == PosInf unbounded above. The
// domain saturates at these sentinels, so a proved bound is always a
// real bound but values beyond ±(2⁶³-1) (e.g. uint64 counts above
// MaxInt64) are simply "unbounded" — conservative, never wrong.
const (
	NegInf = math.MinInt64
	PosInf = math.MaxInt64
)

// Interval is a closed integer interval [Lo, Hi] over mathematical
// integers, with the sentinel endpoints above. Lo > Hi encodes the
// empty interval (unreachable refinement).
type Interval struct {
	Lo, Hi int64
}

// Top is the unbounded interval.
func Top() Interval { return Interval{NegInf, PosInf} }

// Empty is the canonical empty interval.
func Empty() Interval { return Interval{PosInf, NegInf} }

// Const is the singleton interval.
func Const(v int64) Interval { return Interval{v, v} }

// Range builds [lo, hi].
func Range(lo, hi int64) Interval { return Interval{lo, hi} }

// IsEmpty reports the empty interval.
func (i Interval) IsEmpty() bool { return i.Lo > i.Hi }

// IsTop reports full unboundedness.
func (i Interval) IsTop() bool { return i.Lo == NegInf && i.Hi == PosInf }

// BoundedAbove reports a real (non-sentinel) upper bound.
func (i Interval) BoundedAbove() bool { return !i.IsEmpty() && i.Hi != PosInf }

// BoundedBelow reports a real (non-sentinel) lower bound.
func (i Interval) BoundedBelow() bool { return !i.IsEmpty() && i.Lo != NegInf }

// NonNegative reports a proved Lo ≥ 0.
func (i Interval) NonNegative() bool { return !i.IsEmpty() && i.Lo >= 0 }

// Contains reports v ∈ i.
func (i Interval) Contains(v int64) bool { return i.Lo <= v && v <= i.Hi }

// ContainsInterval reports j ⊆ i (the empty interval is in everything).
func (i Interval) ContainsInterval(j Interval) bool {
	if j.IsEmpty() {
		return true
	}
	return i.Lo <= j.Lo && j.Hi <= i.Hi
}

// Join is the interval hull (lattice join).
func (i Interval) Join(j Interval) Interval {
	if i.IsEmpty() {
		return j
	}
	if j.IsEmpty() {
		return i
	}
	return Interval{min(i.Lo, j.Lo), max(i.Hi, j.Hi)}
}

// Meet is the intersection (lattice meet); may be empty.
func (i Interval) Meet(j Interval) Interval {
	if i.IsEmpty() || j.IsEmpty() {
		return Empty()
	}
	m := Interval{max(i.Lo, j.Lo), min(i.Hi, j.Hi)}
	if m.IsEmpty() {
		return Empty()
	}
	return m
}

// Widen is the classic interval widening: any bound that grew since
// prev is blown to its sentinel, so fixpoint chains stabilize in one
// step per direction.
func (i Interval) Widen(next Interval) Interval {
	if i.IsEmpty() {
		return next
	}
	if next.IsEmpty() {
		return i
	}
	w := next.Join(i)
	if w.Lo < i.Lo {
		w.Lo = NegInf
	}
	if w.Hi > i.Hi {
		w.Hi = PosInf
	}
	return w
}

func (i Interval) String() string {
	if i.IsEmpty() {
		return "[]"
	}
	lo, hi := "-inf", "+inf"
	if i.Lo != NegInf {
		lo = fmt.Sprint(i.Lo)
	}
	if i.Hi != PosInf {
		hi = fmt.Sprint(i.Hi)
	}
	return "[" + lo + "," + hi + "]"
}

// --- checked int64 arithmetic on endpoints -------------------------------

func addChecked(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

func subChecked(a, b int64) (int64, bool) {
	d := a - b
	if (b < 0 && d < a) || (b > 0 && d > a) {
		return 0, false
	}
	return d, true
}

func mulChecked(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if (a == math.MinInt64 && b == -1) || (b == math.MinInt64 && a == -1) {
		return 0, false
	}
	v := a * b
	if v/b != a {
		return 0, false
	}
	return v, true
}

// endpoint is one bound during corner evaluation: a finite value or a
// signed infinity.
type endpoint struct {
	v   int64
	inf int // -1 below, +1 above, 0 finite
}

func ep(v int64) endpoint {
	switch v {
	case NegInf:
		return endpoint{inf: -1}
	case PosInf:
		return endpoint{inf: +1}
	}
	return endpoint{v: v}
}

func (e endpoint) sign() int {
	if e.inf != 0 {
		return e.inf
	}
	switch {
	case e.v > 0:
		return 1
	case e.v < 0:
		return -1
	}
	return 0
}

// fromCorners builds the hull of corner results, mapping infinities and
// overflows to sentinel endpoints.
func fromCorners(cs []endpoint) Interval {
	lo, hi := int64(PosInf), int64(NegInf)
	loInf, hiInf := false, false
	for _, c := range cs {
		switch c.inf {
		case -1:
			loInf = true
		case +1:
			hiInf = true
		default:
			lo = min(lo, c.v)
			hi = max(hi, c.v)
		}
	}
	out := Interval{lo, hi}
	if loInf {
		out.Lo = NegInf
	}
	if hiInf {
		out.Hi = PosInf
	}
	if !loInf && !hiInf && out.IsEmpty() {
		return Empty()
	}
	return out
}

func mulCorner(a, b endpoint) endpoint {
	if a.sign() == 0 || b.sign() == 0 {
		// 0 × anything (even unbounded) is 0 for corner purposes: the
		// extreme at this corner is 0.
		if a.inf == 0 && b.inf == 0 {
			if v, ok := mulChecked(a.v, b.v); ok && v != NegInf && v != PosInf {
				return endpoint{v: v}
			}
		}
		return endpoint{v: 0}
	}
	if a.inf != 0 || b.inf != 0 {
		return endpoint{inf: a.sign() * b.sign()}
	}
	if v, ok := mulChecked(a.v, b.v); ok && v != NegInf && v != PosInf {
		return endpoint{v: v}
	}
	return endpoint{inf: a.sign() * b.sign()}
}

// Sentinel semantics are positional: Lo == NegInf and Hi == PosInf are
// genuine unboundedness on their own side, but a sentinel on the
// opposite side (Lo == PosInf from saturation, Hi == NegInf) is the
// numeric boundary value — "the value is at least MaxInt64" — and must
// be computed with, not absorbed, or a negative addend could not pull
// a lower bound back down (the unsoundness the differential test
// catches).

// addLo is the lower-bound sum: NegInf absorbs, everything else adds
// with saturation outward.
func addLo(a, b int64) int64 {
	if a == NegInf || b == NegInf {
		return NegInf
	}
	if v, ok := addChecked(a, b); ok {
		return v // v == PosInf is fine: a true sum ≥ MaxInt64
	}
	if a > 0 || b > 0 {
		return PosInf
	}
	return NegInf
}

// addHi is the upper-bound sum: PosInf absorbs.
func addHi(a, b int64) int64 {
	if a == PosInf || b == PosInf {
		return PosInf
	}
	if v, ok := addChecked(a, b); ok {
		return v
	}
	if a > 0 || b > 0 {
		return PosInf
	}
	return NegInf
}

// Add is mathematical interval addition (no wraparound; callers clamp
// to the machine type separately).
func (i Interval) Add(j Interval) Interval {
	if i.IsEmpty() || j.IsEmpty() {
		return Empty()
	}
	return Interval{addLo(i.Lo, j.Lo), addHi(i.Hi, j.Hi)}
}

// Neg negates: [-Hi, -Lo], with positional sentinel handling (an
// unbounded side flips to the other side; a saturated boundary value
// negates numerically, rounding outward).
func (i Interval) Neg() Interval {
	if i.IsEmpty() {
		return Empty()
	}
	var lo, hi int64
	switch i.Hi {
	case PosInf:
		lo = NegInf // unbounded above → unbounded below
	case NegInf:
		lo = PosInf // value ≤ MinInt64 → negation ≥ MaxInt64(+1)
	default:
		lo = -i.Hi
	}
	switch i.Lo {
	case NegInf:
		hi = PosInf
	case PosInf:
		hi = -math.MaxInt64 // value ≥ MaxInt64 → negation ≤ −MaxInt64
	default:
		hi = -i.Lo
	}
	return Interval{lo, hi}
}

// Sub is i − j.
func (i Interval) Sub(j Interval) Interval { return i.Add(j.Neg()) }

// Mul is mathematical interval multiplication.
func (i Interval) Mul(j Interval) Interval {
	if i.IsEmpty() || j.IsEmpty() {
		return Empty()
	}
	return fromCorners([]endpoint{
		mulCorner(ep(i.Lo), ep(j.Lo)),
		mulCorner(ep(i.Lo), ep(j.Hi)),
		mulCorner(ep(i.Hi), ep(j.Lo)),
		mulCorner(ep(i.Hi), ep(j.Hi)),
	})
}

// Div is Go's truncated division, precise only for a provably positive
// divisor (the decoder's case: sizes over constant ratios); anything
// else is Top, as division by zero panics rather than wraps.
func (i Interval) Div(j Interval) Interval {
	if i.IsEmpty() || j.IsEmpty() {
		return Empty()
	}
	if j.Lo < 1 {
		return Top()
	}
	// Positional sentinels: an unbounded dividend side stays unbounded;
	// a saturated boundary divides numerically (quotients of values
	// beyond ±2⁶³ only move further out, and division by a positive
	// divisor is monotone in the dividend).
	div := func(a endpoint, d int64) endpoint {
		if a.inf != 0 {
			return a
		}
		if d == PosInf {
			return endpoint{v: 0} // a / huge truncates toward zero
		}
		return endpoint{v: a.v / d}
	}
	epLo, epHi := ep(i.Lo), ep(i.Hi)
	if i.Lo == PosInf {
		epLo = endpoint{v: math.MaxInt64}
	}
	if i.Hi == NegInf {
		epHi = endpoint{v: math.MinInt64}
	}
	return fromCorners([]endpoint{
		div(epLo, j.Lo), div(epLo, j.Hi),
		div(epHi, j.Lo), div(epHi, j.Hi),
	})
}

// Rem is Go's a % b for a provably positive divisor: |a%b| < b and
// |a%b| ≤ |a|, with the sign of a.
func (i Interval) Rem(j Interval) Interval {
	if i.IsEmpty() || j.IsEmpty() {
		return Empty()
	}
	if j.Lo < 1 {
		return Top()
	}
	// |a % b| < b, so the result lies in ±(b.Hi−1); each side further
	// clamps by a's own reach on that side (a % b has a's sign).
	bound := int64(PosInf)
	if j.Hi != PosInf {
		bound = j.Hi - 1
	}
	hi := bound
	switch {
	case i.Hi < 0:
		hi = 0
	case i.Hi != PosInf && i.Hi < hi:
		hi = i.Hi
	}
	lo := int64(NegInf)
	if bound != PosInf {
		lo = -bound
	}
	switch {
	case i.Lo >= 0:
		lo = 0
	case i.Lo != NegInf && i.Lo > lo:
		lo = i.Lo
	}
	return Interval{lo, hi}
}

// And is bitwise a & b: when either side is proved non-negative the
// result is within [0, that side's Hi] — this is the mask-clamp
// (`n & 0xffff`) the old syntactic detection missed.
func (i Interval) And(j Interval) Interval {
	if i.IsEmpty() || j.IsEmpty() {
		return Empty()
	}
	switch {
	case j.NonNegative():
		return Interval{0, j.Hi}
	case i.NonNegative():
		return Interval{0, i.Hi}
	}
	return Top()
}

// AndNot is bitwise a &^ b: clearing bits cannot grow a non-negative
// value, so the result stays within [0, a.Hi].
func (i Interval) AndNot(j Interval) Interval {
	if i.IsEmpty() || j.IsEmpty() {
		return Empty()
	}
	if i.NonNegative() {
		return Interval{0, i.Hi}
	}
	return Top()
}

// Or is bitwise a | b; for non-negative operands the result stays
// below the next power of two above both.
func (i Interval) Or(j Interval) Interval { return i.orXor(j) }

// Xor is bitwise a ^ b, same bound as Or.
func (i Interval) Xor(j Interval) Interval { return i.orXor(j) }

func (i Interval) orXor(j Interval) Interval {
	if i.IsEmpty() || j.IsEmpty() {
		return Empty()
	}
	if !i.NonNegative() || !j.NonNegative() {
		return Top()
	}
	h := max(i.Hi, j.Hi)
	if h == PosInf {
		return Interval{0, PosInf}
	}
	n := bits.Len64(uint64(h))
	if n >= 63 {
		return Interval{0, PosInf}
	}
	return Interval{0, int64(1)<<n - 1}
}

// Shl is a << k (mathematical ×2ᵏ; machine wrap handled by the type
// clamp in the engine). Shift counts are non-negative in Go.
func (i Interval) Shl(k Interval) Interval {
	if i.IsEmpty() || k.IsEmpty() {
		return Empty()
	}
	if k.Hi < 0 {
		return Empty() // a negative shift count panics at run time
	}
	kl, kh := max(k.Lo, 0), k.Hi
	pow := func(n int64) int64 {
		if n == PosInf || n >= 63 {
			return PosInf // ≥ 2⁶³: beyond the domain, saturates
		}
		return int64(1) << n
	}
	return i.Mul(Interval{pow(kl), pow(kh)})
}

// Shr is a >> k for non-negative a; shifting possibly-negative values
// is Top.
func (i Interval) Shr(k Interval) Interval {
	if i.IsEmpty() || k.IsEmpty() {
		return Empty()
	}
	if !i.NonNegative() {
		return Top()
	}
	kl, kh := max(k.Lo, 0), min(k.Hi, 63)
	if kh < 0 {
		kh = 0
	}
	lo := i.Lo >> uint(kh)
	hi := i.Hi
	if hi != PosInf {
		hi = hi >> uint(kl)
	}
	return Interval{lo, hi}
}

// MinI is the interval of the builtin min: the numeric min of each
// endpoint pair (sentinels compare numerically, which is exactly the
// unbounded semantics).
func (i Interval) MinI(j Interval) Interval {
	if i.IsEmpty() || j.IsEmpty() {
		return Empty()
	}
	return Interval{min(i.Lo, j.Lo), min(i.Hi, j.Hi)}
}

// MaxI is the interval of the builtin max.
func (i Interval) MaxI(j Interval) Interval {
	if i.IsEmpty() || j.IsEmpty() {
		return Empty()
	}
	return Interval{max(i.Lo, j.Lo), max(i.Hi, j.Hi)}
}

// --- machine types --------------------------------------------------------

// typeRange describes the value set of an integer type: [lo, hi], with
// hiUnbounded for 64-bit unsigned types whose maximum (2⁶⁴−1) is
// beyond the domain.
type typeRange struct {
	lo, hi      int64
	hiUnbounded bool
}

func rangeOfType(t types.Type) (typeRange, bool) {
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 {
		return typeRange{}, false
	}
	switch b.Kind() {
	case types.Int8:
		return typeRange{math.MinInt8, math.MaxInt8, false}, true
	case types.Int16:
		return typeRange{math.MinInt16, math.MaxInt16, false}, true
	case types.Int32, types.UntypedRune:
		return typeRange{math.MinInt32, math.MaxInt32, false}, true
	case types.Int, types.Int64, types.UntypedInt:
		return typeRange{math.MinInt64, math.MaxInt64, false}, true
	case types.Uint8:
		return typeRange{0, math.MaxUint8, false}, true
	case types.Uint16:
		return typeRange{0, math.MaxUint16, false}, true
	case types.Uint32:
		return typeRange{0, math.MaxUint32, false}, true
	case types.Uint, types.Uint64, types.Uintptr:
		return typeRange{0, PosInf, true}, true
	}
	return typeRange{}, false
}

// MachineRange is the interval every value of integer type t lies in
// (with 2⁶⁴−1 saturating to PosInf). Non-integer types get Top.
func MachineRange(t types.Type) Interval {
	r, ok := rangeOfType(t)
	if !ok {
		return Top()
	}
	return Interval{r.lo, r.hi}
}

// meetType intersects a value interval with the possible values of its
// machine type — every stored value satisfies this regardless of how
// the mathematical result wrapped.
func meetType(i Interval, t types.Type) Interval {
	m := i.Meet(MachineRange(t))
	if m.IsEmpty() && !i.IsEmpty() {
		// The mathematical value wrapped: fall back to the type range.
		return MachineRange(t)
	}
	return m
}

// FitsConversion reports that converting a value known to lie in i
// from type `from` to type `to` is value-preserving — i.e. every
// possible value of i (clipped to from's own range) is representable
// in to. This is the proof obligation that retires a sizeoverflow
// narrowing hit, and the wrap-free check for unwrapping conversions
// inside comparisons (`a >= uint64(ncols)` only bounds a by ncols if
// uint64(ncols) cannot wrap).
func FitsConversion(i Interval, from, to types.Type) bool {
	fr, ok := rangeOfType(from)
	if !ok {
		return false
	}
	tr, ok := rangeOfType(to)
	if !ok {
		return false
	}
	if i.IsEmpty() {
		return true
	}
	lo := max(i.Lo, fr.lo)
	hi := min(i.Hi, fr.hi)
	hiUnbounded := fr.hiUnbounded && i.Hi == PosInf
	if lo < tr.lo {
		return false
	}
	if tr.hiUnbounded {
		// Unsigned 64-bit target holds every non-negative value; an
		// unbounded-above source still fits as long as it is one of
		// the 64-bit unsigned types (values < 2⁶⁴).
		return true
	}
	return !hiUnbounded && hi <= tr.hi
}

// FitsType reports that every value of i is representable in t (for
// values whose current static type already constrains them, e.g.
// products). An unbounded interval never fits a bounded type.
func FitsType(i Interval, t types.Type) bool {
	tr, ok := rangeOfType(t)
	if !ok {
		return false
	}
	if i.IsEmpty() {
		return true
	}
	if i.Lo == NegInf || i.Lo < tr.lo {
		return false
	}
	if tr.hiUnbounded {
		return true
	}
	return i.Hi != PosInf && i.Hi <= tr.hi
}
