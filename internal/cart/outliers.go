package cart

import (
	"context"
	"fmt"

	"repro/internal/table"
)

// scanBatchRows is how many rows an outlier scan processes between
// context checks: large enough that the check is amortized to nothing,
// small enough that cancellation lands within a fraction of a
// millisecond of work.
const scanBatchRows = 4096

// ComputeOutliers runs the model over the full table and returns every row
// whose prediction violates the target's tolerance, in row order. It only
// reads the model, so any number of scans may share one tree.
//
// For numeric targets the bound is per-row, so every violating row is
// stored exactly. For categorical targets the bound is a probability: up
// to ⌊tol·N⌋ misclassified rows may remain unstored; the rest are stored
// as outliers. (All categorical outliers cost the same, so which ones stay
// unstored is arbitrary; the earliest rows are kept unstored for
// determinism.) perClass optionally gives per-class mismatch budgets
// instead (paper §2.1's per-class extension), one per dictionary code
// (table.Tolerance.ClassBudgets): for each true class c, at most
// perClass[c]·count(c) rows may stay misclassified unstored. A nil
// perClass keeps the global probability.
//
// The table passed here must use the same schema (and, for categorical
// columns, the same dictionaries) as the sample the model was built on.
// The scan checks ctx between row batches (scanBatchRows rows each) and
// returns the wrapped context error.
func (m *Model) ComputeOutliers(ctx context.Context, full *table.Table, tol float64, perClass []float64) ([]Outlier, error) {
	var out []Outlier
	f := m.flatten(columns(full))
	switch m.TargetKind {
	case table.Numeric:
		col := full.Col(m.Target)
		if col.Kind != table.Numeric {
			return nil, fmt.Errorf("cart: model target %d is numeric, table column is not", m.Target)
		}
		for base := 0; base < full.NumRows(); base += scanBatchRows {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("cart: outlier scan: %w", err)
			}
			for r, end := base, minRow(base+scanBatchRows, full.NumRows()); r < end; r++ {
				pred, _ := f.predict(r)
				actual := col.Floats[r]
				if diff := actual - pred; diff > tol || diff < -tol {
					out = append(out, Outlier{Row: r, Num: actual})
				}
			}
		}
	case table.Categorical:
		col := full.Col(m.Target)
		if col.Kind != table.Categorical {
			return nil, fmt.Errorf("cart: model target %d is categorical, table column is not", m.Target)
		}
		var wrong []Outlier
		for base := 0; base < full.NumRows(); base += scanBatchRows {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("cart: outlier scan: %w", err)
			}
			for r, end := base, minRow(base+scanBatchRows, full.NumRows()); r < end; r++ {
				_, pred := f.predict(r)
				if actual := col.Codes[r]; actual != pred {
					wrong = append(wrong, Outlier{Row: r, Code: actual})
				}
			}
		}
		if perClass == nil {
			allowance := int(tol * float64(full.NumRows()))
			if allowance > len(wrong) {
				allowance = len(wrong)
			}
			return wrong[allowance:], nil
		}
		// Per-class budgets: allowance_c = ⌊e_c · |rows with class c|⌋.
		left := make([]int, len(col.Dict))
		for _, c := range col.Codes {
			left[c]++
		}
		for c, n := range left {
			left[c] = int(perClass[c] * float64(n))
		}
		for _, o := range wrong {
			if left[o.Code] > 0 {
				left[o.Code]--
				continue
			}
			out = append(out, o)
		}
	}
	return out, nil
}

func minRow(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// CountViolations returns how many rows of t the model would store as
// outliers under the given tolerance, without materializing the outlier
// list. For categorical targets the probability allowance is already
// subtracted. Selectors use this on a holdout sample for honest
// prediction-cost estimates.
func (m *Model) CountViolations(t *table.Table, tol float64) int {
	f := m.flatten(columns(t))
	switch m.TargetKind {
	case table.Numeric:
		col := t.Col(m.Target)
		n := 0
		for r := 0; r < t.NumRows(); r++ {
			pred, _ := f.predict(r)
			if diff := col.Floats[r] - pred; diff > tol || diff < -tol {
				n++
			}
		}
		return n
	default:
		col := t.Col(m.Target)
		wrong := 0
		for r := 0; r < t.NumRows(); r++ {
			_, pred := f.predict(r)
			if col.Codes[r] != pred {
				wrong++
			}
		}
		wrong -= int(tol * float64(t.NumRows()))
		if wrong < 0 {
			wrong = 0
		}
		return wrong
	}
}

// Reconstruct fills the model's target column, cols[m.Target], with its
// predictions over the predictor columns in cols (a table's columns by
// attribute index) and patches in outliers, the rows those predictions
// missed. The caller allocates the target column with the table's row
// count.
func (m *Model) Reconstruct(cols []*table.Column, outliers []Outlier) {
	f := m.flatten(cols)
	out := cols[m.Target]
	if m.TargetKind == table.Numeric {
		for r := range out.Floats {
			out.Floats[r], _ = f.predict(r)
		}
		for _, o := range outliers {
			out.Floats[o.Row] = o.Num
		}
		return
	}
	for r := range out.Codes {
		_, out.Codes[r] = f.predict(r)
	}
	for _, o := range outliers {
		out.Codes[o.Row] = o.Code
	}
}
