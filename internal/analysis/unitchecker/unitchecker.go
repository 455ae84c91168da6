// Package unitchecker implements the command-line protocol that `go vet`
// speaks to an external analysis tool (`go vet -vettool=...`). It is a
// standard-library-only equivalent of
// golang.org/x/tools/go/analysis/unitchecker, providing exactly what
// cmd/spartanvet needs:
//
//   - `tool -V=full` prints a content-addressed version line the go
//     command uses for build caching;
//   - `tool -flags` prints the supported flags as JSON;
//   - `tool [flags] $dir/vet.cfg` type-checks one package unit described
//     by the JSON config (source files plus export data for every
//     dependency) and runs the analyzers over it.
//
// Diagnostics are printed to stderr as "file:line:col: message [name]"
// and make the process exit non-zero, which `go vet` reports as failure.
//
// Beyond the vet protocol, the tool also runs standalone over package
// patterns (`tool -sarif ./...`): it resolves the patterns and their
// export data through `go list`, analyzes every matched package, and
// emits one aggregated report. Output formats:
//
//   - default: the vet-style text lines on stderr, exit 2 on findings;
//   - -json: a JSON array of diagnostics on stdout, exit 0;
//   - -sarif: a SARIF 2.1.0 log on stdout (GitHub code scanning), exit 0.
//
// The data formats exit zero on findings because they exist to report,
// not to gate; the text mode remains the CI tripwire. A third mode,
// `tool -sarifvalidate report.sarif`, strictly validates an emitted log
// against the SARIF 2.1.0 model before it is uploaded. In all modes a
// //spartanvet:ignore directive that no longer suppresses anything is
// itself reported as a finding under the name "staleignore" (the
// "ignore all" form is only judged when the full suite runs, since a
// partial run cannot tell whether the directive still earns its keep).
// -debug.cfg=<func> dumps the control-flow graph of every function with
// that name to stderr while checking, for analyzer debugging.
package unitchecker

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

// Config is the package-unit description the go command writes to
// $objdir/vet.cfg. Field names follow cmd/go/internal/work.vetConfig;
// fields the checker does not need are accepted and ignored.
type Config struct {
	ID         string
	Compiler   string
	Dir        string
	ImportPath string
	GoVersion  string
	GoFiles    []string

	ImportMap   map[string]string
	PackageFile map[string]string

	// PackageVetx maps each dependency's import path to the .vetx file a
	// previous VetxOnly run of this tool produced for it — the facts the
	// interprocedural analyzers consume for cross-package calls.
	PackageVetx map[string]string

	VetxOnly   bool
	VetxOutput string

	SucceedOnTypecheckFailure bool
}

// Run is the entry point for a vettool main: it interprets the protocol
// arguments in args (typically os.Args[1:]) and never returns.
func Run(progname string, args []string, analyzers []*analysis.Analyzer) {
	exit(run(progname, args, analyzers, os.Stdout, os.Stderr))
}

func exit(code int) { os.Exit(code) }

// options carries the output and debugging switches shared by the
// protocol and standalone modes.
type options struct {
	format   string // "" (vet text), "json", or "sarif"
	debugCFG string // function name whose CFG is dumped to stderr
	judgeAll bool   // full suite ran: "ignore all" directives are judged
	stderr   io.Writer
}

func run(progname string, args []string, analyzers []*analysis.Analyzer, stdout, stderr io.Writer) int {
	enabled := map[string]*bool{}
	opts := &options{stderr: stderr}
	var positional []string
	sarifValidate := false
	for _, arg := range args {
		switch {
		case arg == "-sarifvalidate" || arg == "--sarifvalidate":
			sarifValidate = true
		case arg == "-V=full" || arg == "--V=full":
			fmt.Fprintln(stdout, versionLine(progname))
			return 0
		case arg == "-V" || strings.HasPrefix(arg, "-V="):
			// Plain -V: a short version is enough.
			fmt.Fprintf(stdout, "%s version devel\n", progname)
			return 0
		case arg == "-flags" || arg == "--flags":
			fmt.Fprintln(stdout, flagsJSON(analyzers))
			return 0
		case arg == "-json" || arg == "--json":
			opts.format = "json"
		case arg == "-sarif" || arg == "--sarif":
			opts.format = "sarif"
		case strings.HasPrefix(arg, "-debug.cfg="), strings.HasPrefix(arg, "--debug.cfg="):
			_, opts.debugCFG, _ = strings.Cut(arg, "=")
		case strings.HasPrefix(arg, "-"):
			name, val, ok := parseBoolFlag(arg)
			if !ok {
				fmt.Fprintf(stderr, "%s: unrecognized flag %s\n", progname, arg)
				return 2
			}
			enabled[name] = &val
		default:
			positional = append(positional, arg)
		}
	}

	// Honor per-analyzer -name=true/false flags the way `go vet` does: if
	// any analyzer is explicitly enabled, only the enabled set runs.
	selected := analyzers
	if anyExplicitTrue(enabled) {
		selected = nil
		for _, a := range analyzers {
			if v := enabled[a.Name]; v != nil && *v {
				selected = append(selected, a)
			}
		}
	} else {
		var keep []*analysis.Analyzer
		for _, a := range analyzers {
			if v := enabled[a.Name]; v != nil && !*v {
				continue
			}
			keep = append(keep, a)
		}
		selected = keep
	}
	// Unused "ignore all" directives can only be judged when nothing was
	// deselected: a partial run cannot prove a directive useless.
	opts.judgeAll = len(enabled) == 0

	if sarifValidate {
		return runSarifValidate(progname, positional, stdout, stderr)
	}

	if len(positional) != 1 || !strings.HasSuffix(positional[0], ".cfg") {
		if len(positional) > 0 {
			return runStandalone(progname, positional, selected, opts, stdout, stderr)
		}
		fmt.Fprintf(stderr, "%s: this tool speaks the `go vet` protocol; invoke it as:\n"+
			"  go vet -vettool=%s ./...       (per-unit, build-cached)\n"+
			"  %s [-json|-sarif] ./...        (standalone, aggregated report)\n"+
			"  %s -sarifvalidate report.sarif (strict SARIF 2.1.0 check)\n",
			progname, progname, progname, progname)
		return 1
	}
	cfgFile := positional[0]

	cfg, err := readConfig(cfgFile)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", progname, err)
		return 1
	}

	facts := loadFacts(cfg)

	// The go command runs the tool over every dependency with
	// VetxOnly=true so that fact-producing analyzers (funcsummary) can
	// hand their results downstream. Only the producers run on such
	// units; their exports become the body of the unit's .vetx file. A
	// dependency that fails to analyze writes an empty vetx instead of
	// failing the whole vet run — missing facts only cost downstream
	// precision, never correctness.
	if cfg.VetxOnly {
		if producers := factProducers(selected); len(producers) > 0 {
			if err := checkFactsOnly(cfg, producers, opts, facts); err != nil {
				fmt.Fprintf(stderr, "%s: %s (facts skipped): %v\n", progname, cfg.ImportPath, err)
			}
		}
		if err := writeVetx(cfg, facts); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", progname, err)
			return 1
		}
		return 0
	}

	diags, err := checkPackage(cfg, selected, opts, facts)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(stderr, "%s: %s: %v\n", progname, cfg.ImportPath, err)
		return 1
	}
	if err := writeVetx(cfg, facts); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", progname, err)
		return 1
	}
	return report(progname, selected, diags, opts, stdout, stderr)
}

// factProducers filters the analyzers that export package facts.
func factProducers(analyzers []*analysis.Analyzer) []*analysis.Analyzer {
	var out []*analysis.Analyzer
	for _, a := range analyzers {
		if a.Facts {
			out = append(out, a)
		}
	}
	return out
}

// checkFactsOnly runs the fact producers over a dependency unit. Fact
// runs cover every dependency — the standard library included — so a
// producer tripping over code the module never shaped is contained
// here: the panic becomes an error, the unit just exports no facts.
func checkFactsOnly(cfg *Config, producers []*analysis.Analyzer, opts *options, facts *analysis.FactStore) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("fact producer panicked: %v", r)
		}
	}()
	_, err = checkPackage(cfg, producers, opts, facts)
	return err
}

// report renders diagnostics in the selected format and returns the
// process exit code. The vet-style text mode prints unsuppressed
// findings to stderr and fails; the data formats print everything —
// suppressed results included, marked as such — to stdout and succeed,
// because they feed dashboards rather than gate merges.
func report(progname string, analyzers []*analysis.Analyzer, diags []Diag, opts *options, stdout, stderr io.Writer) int {
	switch opts.format {
	case "json":
		out, err := marshalJSON(diags)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", progname, err)
			return 1
		}
		stdout.Write(out)
		return 0
	case "sarif":
		out, err := buildSARIF(progname, analyzers, diags).Marshal()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", progname, err)
			return 1
		}
		stdout.Write(out)
		return 0
	default:
		failed := false
		for _, d := range diags {
			if d.Suppressed {
				continue
			}
			fmt.Fprintln(stderr, d)
			for _, rel := range d.Related {
				fmt.Fprintf(stderr, "\t%s: %s\n", rel.Position, rel.Message)
			}
			failed = true
		}
		if failed {
			return 2
		}
		return 0
	}
}

func parseBoolFlag(arg string) (name string, val bool, ok bool) {
	arg = strings.TrimPrefix(arg, "-")
	arg = strings.TrimPrefix(arg, "-") // tolerate --name
	name, s, hasVal := strings.Cut(arg, "=")
	if !hasVal {
		return name, true, true
	}
	switch s {
	case "true", "1":
		return name, true, true
	case "false", "0":
		return name, false, true
	}
	return "", false, false
}

func anyExplicitTrue(m map[string]*bool) bool {
	for _, v := range m {
		if v != nil && *v {
			return true
		}
	}
	return false
}

// versionLine matches the format cmd/go's toolID parser accepts for a
// development tool: "name version devel ... buildID=<content-id>". The
// content ID hashes the executable so rebuilding the tool (new or changed
// analyzers) invalidates `go vet`'s result cache.
func versionLine(progname string) string {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			sum := sha256.Sum256(data)
			id = fmt.Sprintf("%x", sum[:12])
		}
	}
	return fmt.Sprintf("%s version devel buildID=%s", progname, id)
}

// flagsJSON describes the tool's flags in the JSON shape `go vet`
// expects from `tool -flags`: one boolean flag per analyzer.
func flagsJSON(analyzers []*analysis.Analyzer) string {
	type flagDesc struct {
		Name  string
		Bool  bool
		Usage string
	}
	descs := make([]flagDesc, 0, len(analyzers))
	for _, a := range analyzers {
		summary, _, _ := strings.Cut(a.Doc, "\n")
		descs = append(descs, flagDesc{Name: a.Name, Bool: true, Usage: summary})
	}
	out, err := json.Marshal(descs)
	if err != nil {
		return "[]"
	}
	return string(out)
}

func readConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg := new(Config)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("parsing vet config %s: %w", path, err)
	}
	if cfg.ImportPath == "" {
		cfg.ImportPath = cfg.ID
	}
	return cfg, nil
}

// loadFacts reads the .vetx file of every dependency named in
// cfg.PackageVetx into a fresh store. Unreadable or malformed files are
// skipped — the downstream analyzers just see fewer facts.
func loadFacts(cfg *Config) *analysis.FactStore {
	store := analysis.NewFactStore()
	for path, file := range cfg.PackageVetx {
		data, err := os.ReadFile(file)
		if err != nil {
			continue
		}
		if err := store.DecodePackage(path, data); err != nil {
			continue
		}
	}
	return store
}

// writeVetx persists this unit's exported facts as its .vetx body.
func writeVetx(cfg *Config, facts *analysis.FactStore) error {
	if cfg.VetxOutput == "" {
		return nil
	}
	body, err := facts.EncodePackage(cfg.ImportPath)
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.VetxOutput, body, 0o666)
}

// Diag is one rendered diagnostic. Suppressed diagnostics (silenced by
// a //spartanvet:ignore directive) are carried along for the data
// formats, which report them as SARIF suppressions instead of dropping
// them.
type Diag struct {
	Position   token.Position
	Message    string
	Analyzer   string
	Suppressed bool
	// Justification is the directive's free-text reason, set only when
	// Suppressed.
	Justification string
	// Related carries auxiliary positions — for the taint analyzers, the
	// source→sink path: where the wire value entered and every step it
	// travelled before reaching the sink.
	Related []RelDiag
}

// RelDiag is one related location of a diagnostic.
type RelDiag struct {
	Position token.Position
	Message  string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Position, d.Message, d.Analyzer)
}

// checkPackage parses and type-checks the unit and runs the analyzers.
// Dependency facts arrive through facts; fact-producing analyzers
// export this package's facts into the same store.
func checkPackage(cfg *Config, analyzers []*analysis.Analyzer, opts *options, facts *analysis.FactStore) ([]Diag, error) {
	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(cfg.GoFiles))
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	base := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tcfg := &types.Config{
		Importer:  mappedImporter{m: cfg.ImportMap, next: base},
		GoVersion: cfg.GoVersion,
		Sizes:     types.SizesFor(compiler, buildArch()),
	}
	pkg, err := tcfg.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, err
	}

	if opts.debugCFG != "" {
		dumpCFGs(opts.stderr, fset, files, opts.debugCFG)
	}

	// One suppression index shared by every analyzer, so that after the
	// runs it knows which directives earned their keep.
	sup := analysis.IndexSuppressions(fset, files)
	toDiag := func(d analysis.Diagnostic) Diag {
		pos := fset.Position(d.Pos)
		pos.Filename = relativeTo(pos.Filename, cfg.Dir)
		out := Diag{Position: pos, Message: d.Message, Analyzer: d.Analyzer}
		for _, rel := range d.Related {
			// In-package steps carry a token.Pos; cross-package sites (a
			// summarized callee's allocation) arrive pre-resolved.
			rp := rel.Position
			if rel.Pos.IsValid() {
				rp = fset.Position(rel.Pos)
			}
			rp.Filename = relativeTo(rp.Filename, cfg.Dir)
			out.Related = append(out.Related, RelDiag{Position: rp, Message: rel.Message})
		}
		return out
	}
	var diags []Diag
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
		pass := analysis.NewPassShared(a, fset, files, pkg, info, func(d analysis.Diagnostic) {
			diags = append(diags, toDiag(d))
		}, sup)
		pass.Facts = facts
		pass.SuppressedSink = func(d analysis.Diagnostic, dir *analysis.Directive) {
			sd := toDiag(d)
			sd.Suppressed = true
			sd.Justification = dir.Reason
			diags = append(diags, sd)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	for _, d := range sup.Stale(known, opts.judgeAll) {
		diags = append(diags, toDiag(d))
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := diags[i].Position, diags[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags, nil
}

// dumpCFGs prints the control-flow graph of every function declaration
// named name, for analyzer debugging (-debug.cfg=<func>).
func dumpCFGs(w io.Writer, fset *token.FileSet, files []*ast.File, name string) {
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != name || fd.Body == nil {
				continue
			}
			fmt.Fprintf(w, "# CFG %s (%s)\n%s", name, fset.Position(fd.Pos()), cfg.New(fd.Body).Format(fset))
		}
	}
}

// relativeTo shortens absolute file names to be relative to the working
// directory `go vet` launched the tool in, matching cmd/vet output.
func relativeTo(filename, dir string) string {
	if dir == "" {
		return filename
	}
	if rel, err := filepath.Rel(dir, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return filename
}

func buildArch() string {
	if v := os.Getenv("GOARCH"); v != "" {
		return v
	}
	return runtime.GOARCH
}

// mappedImporter resolves source-level import paths through the unit's
// ImportMap (vendoring, test variants) before loading export data.
type mappedImporter struct {
	m    map[string]string
	next types.Importer
}

func (mi mappedImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := mi.m[path]; ok {
		path = mapped
	}
	return mi.next.Import(path)
}
