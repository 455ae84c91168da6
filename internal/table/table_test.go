package table

import (
	"math"
	"strings"
	"testing"
)

func creditSchema() Schema {
	return Schema{
		{Name: "age", Kind: Numeric},
		{Name: "salary", Kind: Numeric},
		{Name: "assets", Kind: Numeric},
		{Name: "credit", Kind: Categorical},
	}
}

// paperTable reproduces the 8-tuple table of Figure 1(a) in the paper.
func paperTable(t *testing.T) *Table {
	t.Helper()
	b := MustBuilder(creditSchema())
	rows := [][]any{
		{30.0, 90000.0, 200000.0, "good"},
		{50.0, 110000.0, 250000.0, "good"},
		{70.0, 35000.0, 125000.0, "poor"},
		{75.0, 15000.0, 100000.0, "poor"},
		{25.0, 50000.0, 75000.0, "good"},
		{35.0, 76000.0, 75000.0, "good"},
		{45.0, 100000.0, 175000.0, "poor"},
		{55.0, 80000.0, 150000.0, "good"},
	}
	for _, r := range rows {
		b.MustAppendRow(r...)
	}
	return b.MustBuild()
}

func TestBuilderAndAccessors(t *testing.T) {
	tb := paperTable(t)
	if got, want := tb.NumRows(), 8; got != want {
		t.Fatalf("NumRows = %d, want %d", got, want)
	}
	if got, want := tb.NumCols(), 4; got != want {
		t.Fatalf("NumCols = %d, want %d", got, want)
	}
	if got := tb.Float(0, 1); got != 90000 {
		t.Errorf("Float(0,1) = %g, want 90000", got)
	}
	if got := tb.CatString(2, 3); got != "poor" {
		t.Errorf("CatString(2,3) = %q, want poor", got)
	}
	if got := tb.Col(3).DomainSize(); got != 2 {
		t.Errorf("credit domain size = %d, want 2", got)
	}
}

func TestBuilderRejectsWrongTypes(t *testing.T) {
	b := MustBuilder(creditSchema())
	if err := b.AppendRow("x", 1.0, 2.0, "good"); err == nil {
		t.Error("AppendRow accepted string for numeric attribute")
	}
	if err := b.AppendRow(1.0, 2.0, 3.0, 4.0); err == nil {
		t.Error("AppendRow accepted float for categorical attribute")
	}
	if err := b.AppendRow(1.0, 2.0, 3.0); err == nil {
		t.Error("AppendRow accepted short row")
	}
	if err := b.AppendRow(math.NaN(), 2.0, 3.0, "good"); err == nil {
		t.Error("AppendRow accepted NaN")
	}
	if b.NumRows() != 0 {
		t.Errorf("failed appends left %d rows in builder", b.NumRows())
	}
}

// TestBuilderRefusesFloat32Overflow: cells are stored as float32, so a
// finite float64 that rounds to ±Inf is refused at AppendRow, naming the
// attribute, instead of passing and failing Build later.
func TestBuilderRefusesFloat32Overflow(t *testing.T) {
	b := MustBuilder(Schema{{Name: "x", Kind: Numeric}})
	for _, v := range []float64{1e308, -1e308} {
		if err := b.AppendRow(v); err == nil || !strings.Contains(err.Error(), `"x"`) {
			t.Errorf("AppendRow(%g) = %v, want an error naming attribute x", v, err)
		}
	}
	if b.NumRows() != 0 {
		t.Fatalf("refused appends left %d rows in the builder", b.NumRows())
	}
	for _, v := range []float64{math.MaxFloat32, -math.MaxFloat32} {
		if err := b.AppendRow(v); err != nil {
			t.Errorf("AppendRow(%g): %v", v, err)
		}
	}
	tb, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Float(1, 0); got != -math.MaxFloat32 {
		t.Errorf("Float(1,0) = %g, want %g", got, -math.MaxFloat32)
	}

	_, err = ReadCSV(strings.NewReader("dur\n1\n1e39\n"), nil)
	if err == nil || !strings.Contains(err.Error(), `"dur"`) {
		t.Errorf("ReadCSV of a 1e39 cell = %v, want an error naming attribute dur", err)
	}
}

func TestBuilderAcceptsIntForNumeric(t *testing.T) {
	b := MustBuilder(Schema{{Name: "x", Kind: Numeric}})
	if err := b.AppendRow(7); err != nil {
		t.Fatalf("AppendRow(int) failed: %v", err)
	}
	tb := b.MustBuild()
	if tb.Float(0, 0) != 7 {
		t.Errorf("Float = %g, want 7", tb.Float(0, 0))
	}
}

func TestSchemaValidate(t *testing.T) {
	cases := []struct {
		name   string
		schema Schema
		ok     bool
	}{
		{"empty", Schema{}, false},
		{"unnamed", Schema{{Name: "", Kind: Numeric}}, false},
		{"dup", Schema{{Name: "a", Kind: Numeric}, {Name: "a", Kind: Categorical}}, false},
		{"ok", Schema{{Name: "a", Kind: Numeric}, {Name: "b", Kind: Categorical}}, true},
	}
	for _, c := range cases {
		err := c.schema.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() err = %v, ok = %v", c.name, err, c.ok)
		}
	}
}

func TestProjectSharesColumns(t *testing.T) {
	tb := paperTable(t)
	p, err := tb.Project([]int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.Attr(0).Name != "salary" || p.Attr(1).Name != "age" {
		t.Fatalf("project schema = %v", p.Schema().Names())
	}
	if p.Col(0) != tb.Col(1) {
		t.Error("Project copied columns; expected sharing")
	}
	if _, err := tb.Project([]int{99}); err == nil {
		t.Error("Project accepted out-of-range index")
	}
}

func TestSelectRows(t *testing.T) {
	tb := paperTable(t)
	s, err := tb.SelectRows([]int{7, 0})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", s.NumRows())
	}
	if s.Float(0, 0) != 55 || s.Float(1, 0) != 30 {
		t.Errorf("selected ages = %g, %g; want 55, 30", s.Float(0, 0), s.Float(1, 0))
	}
	if _, err := tb.SelectRows([]int{-1}); err == nil {
		t.Error("SelectRows accepted negative index")
	}
}

func TestSlice(t *testing.T) {
	tb := paperTable(t)
	if tb.Slice(0, tb.NumRows()) != tb {
		t.Error("a slice of every row is not the table itself")
	}
	want, err := tb.SelectRows([]int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	s := tb.Slice(2, 5)
	if !Equal(s, want) {
		t.Fatal("Slice(2, 5) differs from rows 2, 3, 4")
	}
	// The view is capped at its rows: an append reallocates rather than
	// overwrite row 5 of tb.
	orig := tb.Clone()
	_ = append(s.Col(0).Floats, -1)
	_ = append(s.Col(3).Codes, 0)
	if !Equal(tb, orig) {
		t.Error("appending to a slice's column wrote into the table")
	}
	defer func() {
		if recover() == nil {
			t.Error("Slice(5, 2) did not panic")
		}
	}()
	tb.Slice(5, 2)
}

func TestEqualAndClone(t *testing.T) {
	a := paperTable(t)
	b := a.Clone()
	if !Equal(a, b) {
		t.Fatal("clone not Equal to original")
	}
	b.Col(0).Floats[3] = 99
	if Equal(a, b) {
		t.Fatal("Equal missed a mutated cell")
	}
	if a.Col(0).Floats[3] == 99 {
		t.Fatal("Clone shares column storage")
	}
}

func TestEqualIgnoresDictOrder(t *testing.T) {
	s := Schema{{Name: "c", Kind: Categorical}}
	b1 := MustBuilder(s)
	b1.MustAppendRow("x")
	b1.MustAppendRow("y")
	t1 := b1.MustBuild()
	b2 := MustBuilder(s)
	b2.MustAppendRow("y") // dictionary order y,x
	b2.MustAppendRow("x")
	t2raw := b2.MustBuild()
	t2, err := t2raw.SelectRows([]int{1, 0}) // values x,y again
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(t1, t2) {
		t.Error("Equal is sensitive to dictionary ordering")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := paperTable(t)
	b := a.Clone()
	b.Col(1).Floats[0] += 4000
	b.Col(3).Codes[0] = 1 - b.Col(3).Codes[0]
	d, err := MaxAbsDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d[1] != 4000 {
		t.Errorf("numeric diff = %g, want 4000", d[1])
	}
	if math.Abs(d[3]-0.125) > 1e-12 {
		t.Errorf("categorical diff = %g, want 0.125", d[3])
	}
}

func TestMinMaxRange(t *testing.T) {
	tb := paperTable(t)
	lo, hi := tb.Col(1).MinMax()
	if lo != 15000 || hi != 110000 {
		t.Errorf("salary MinMax = %g, %g; want 15000, 110000", lo, hi)
	}
	if r := tb.Col(1).Range(); r != 95000 {
		t.Errorf("salary Range = %g, want 95000", r)
	}
}

func TestNewValidation(t *testing.T) {
	s := Schema{{Name: "a", Kind: Numeric}, {Name: "b", Kind: Categorical}}
	numCol := &Column{Kind: Numeric, Floats: []float64{1, 2}}
	catCol := &Column{Kind: Categorical, Codes: []int32{0, 1}, Dict: []string{"x", "y"}}

	if _, err := New(s, []*Column{numCol}); err == nil {
		t.Error("New accepted wrong column count")
	}
	if _, err := New(s, []*Column{catCol, numCol}); err == nil {
		t.Error("New accepted kind mismatch")
	}
	short := &Column{Kind: Categorical, Codes: []int32{0}, Dict: []string{"x"}}
	if _, err := New(s, []*Column{numCol, short}); err == nil {
		t.Error("New accepted ragged columns")
	}
	bad := &Column{Kind: Categorical, Codes: []int32{0, 5}, Dict: []string{"x", "y"}}
	if _, err := New(s, []*Column{numCol, bad}); err == nil {
		t.Error("New accepted out-of-dictionary code")
	}
	if _, err := New(s, []*Column{numCol, catCol}); err != nil {
		t.Errorf("New rejected valid table: %v", err)
	}
}

// TestWithColumns checks that a table rebuilt over its own columns and
// new ones is checked as New checks it, except that its own columns are
// not scanned again: a new column with a non-finite value or a bad code
// is refused with New's error, a new ragged column too, and t's own
// columns pass even when they hold a cell New would refuse.
func TestWithColumns(t *testing.T) {
	s := Schema{{Name: "a", Kind: Numeric}, {Name: "b", Kind: Categorical}}
	numCol := &Column{Kind: Numeric, Floats: []float64{1, 2}}
	catCol := &Column{Kind: Categorical, Codes: []int32{0, 1}, Dict: []string{"x", "y"}}
	tb, err := New(s, []*Column{numCol, catCol})
	if err != nil {
		t.Fatal(err)
	}
	nan := &Column{Kind: Numeric, Floats: []float64{1, math.NaN()}}
	badCode := &Column{Kind: Categorical, Codes: []int32{0, 5}, Dict: []string{"x", "y"}}
	for _, cols := range [][]*Column{{nan, catCol}, {numCol, badCode}, {{Kind: Numeric, Floats: []float64{1}}, catCol}} {
		_, err := tb.WithColumns(cols)
		_, want := New(s, cols)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("WithColumns error %v, want New's %v", err, want)
		}
	}
	got, err := tb.WithColumns([]*Column{{Kind: Numeric, Floats: []float64{3, 4}}, catCol})
	if err != nil || got.Float(1, 0) != 4 || got.Code(1, 1) != 1 {
		t.Errorf("WithColumns over a new valid column: %v", err)
	}
	numCol.Floats[1] = math.Inf(1) // t's own column is trusted, not scanned again
	if _, err := tb.WithColumns([]*Column{numCol, catCol}); err != nil {
		t.Errorf("WithColumns scanned t's own column: %v", err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := paperTable(t)
	var sb strings.Builder
	if err := WriteCSV(&sb, tb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(sb.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(tb, got) {
		t.Error("CSV round trip changed table")
	}
	// With an explicit matching schema.
	got2, err := ReadCSV(strings.NewReader(sb.String()), tb.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(tb, got2) {
		t.Error("CSV round trip with explicit schema changed table")
	}
}

func TestCSVSchemaInference(t *testing.T) {
	in := "num,mixed\n1.5,2\n2,x\n"
	tb, err := ReadCSV(strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Attr(0).Kind != Numeric {
		t.Error("all-float column inferred categorical")
	}
	if tb.Attr(1).Kind != Categorical {
		t.Error("mixed column inferred numeric")
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), nil); err == nil {
		t.Error("ReadCSV accepted empty input")
	}
	wrong := Schema{{Name: "zzz", Kind: Numeric}}
	if _, err := ReadCSV(strings.NewReader("a\n1\n"), wrong); err == nil {
		t.Error("ReadCSV accepted mismatched schema names")
	}
	badNum := Schema{{Name: "a", Kind: Numeric}}
	if _, err := ReadCSV(strings.NewReader("a\nxyz\n"), badNum); err == nil {
		t.Error("ReadCSV accepted unparsable numeric cell")
	}
}
