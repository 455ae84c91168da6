package unitchecker

// The SARIF 2.1.0 report for GitHub code scanning. It carries
// suppressed findings explicitly, as result suppressions, so a
// dashboard can distinguish "clean" from "silenced".

import (
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/sarif"
)

// buildSARIF assembles one single-run SARIF log: a rule per registered
// analyzer (plus the synthetic staleignore rule), a result per
// diagnostic, and inSource suppressions for silenced findings.
func buildSARIF(progname string, analyzers []*analysis.Analyzer, diags []Diag) *sarif.Log {
	var rules []sarif.Rule
	index := map[string]int{}
	addRule := func(name, short, full string) {
		if _, ok := index[name]; ok {
			return
		}
		index[name] = len(rules)
		r := sarif.Rule{
			ID:            name,
			Name:          name,
			DefaultConfig: &sarif.Configuration{Level: "warning"},
		}
		if short != "" {
			r.ShortDescription = &sarif.Multiformat{Text: short}
		}
		if full != "" && full != short {
			r.FullDescription = &sarif.Multiformat{Text: full}
		}
		rules = append(rules, r)
	}
	for _, a := range analyzers {
		short, _, _ := strings.Cut(a.Doc, "\n")
		addRule(a.Name, short, a.Doc)
	}
	addRule(analysis.StaleIgnoreName,
		"flag //spartanvet:ignore directives that no longer suppress anything",
		"An ignore directive whose finding has been fixed is a latent hole:\nit silences the next real finding on that line. Delete it.")

	results := make([]sarif.Result, 0, len(diags))
	for _, d := range diags {
		// Diagnostics can only come from registered analyzers or the
		// stale-directive check, but keep the log valid regardless.
		addRule(d.Analyzer, "", "")
		i := index[d.Analyzer]
		res := sarif.Result{
			RuleID:    d.Analyzer,
			RuleIndex: &i,
			Level:     "warning",
			Message:   sarif.Message{Text: d.Message},
		}
		if d.Position.Filename != "" && d.Position.Line >= 1 {
			res.Locations = []sarif.Location{{PhysicalLocation: sarif.PhysicalLocation{
				ArtifactLocation: sarif.ArtifactLocation{URI: filepath.ToSlash(d.Position.Filename)},
				Region:           &sarif.Region{StartLine: d.Position.Line, StartColumn: d.Position.Column},
			}}}
		}
		if d.Suppressed {
			res.Suppressions = []sarif.Suppression{{Kind: "inSource", Justification: d.Justification}}
		}
		results = append(results, res)
	}

	return &sarif.Log{
		Schema:  sarif.SchemaURI,
		Version: sarif.Version,
		Runs: []sarif.Run{{
			Tool:    sarif.Tool{Driver: sarif.Driver{Name: progname, Rules: rules}},
			Results: results,
		}},
	}
}
