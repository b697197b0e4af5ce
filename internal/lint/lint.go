// Package lint is the repo's custom static-analysis suite: a small,
// stdlib-only analyzer framework (go/parser + go/types, no x/tools
// dependency, so it runs offline) plus the nine analyzers that
// mechanically enforce the contracts the paper reproduction depends on.
//
// Four are AST-level pattern checks:
//
//   - determinism: result-producing packages must not let wall clock,
//     global math/rand state, or unordered map iteration feed floats into
//     results. The fidelity scoreboard and timeline exports are
//     regression-gated on byte-identical output across -j levels and cache
//     states; one `range` over a map that reorders a float accumulation
//     breaks every downstream gate.
//   - nilsafe: exported methods on obs/timeline collector types must begin
//     with a nil-receiver guard, keeping the disabled telemetry path a
//     zero-alloc no-op.
//   - stdoutpure: fmt.Print*/os.Stdout writes are forbidden outside cmd/*
//     and examples/* render paths, protecting the byte-identical-stdout
//     gate.
//   - countersafe: obs counter/gauge names must come from declared
//     constants, so a typo'd metric name is a compile-visible diagnostic
//     instead of a silently empty manifest row.
//
// Five are flow-sensitive, built on the cfg.go/dataflow.go engine (basic
// blocks, reaching definitions, and bounded interprocedural call walks
// over every package the loader has in memory):
//
//   - poolsafe: a job holding a sim.Pool slot must not transitively
//     re-acquire from the same pool (nested acquisition deadlocks under
//     saturation — the PR 9 incident, machine-checked).
//   - cachekey: every serialized field reachable from the hash-root
//     structs must feed expt.ConfigHash, and every field of a request
//     struct must reach a RequestKey call — new fields that silently
//     collide cached results become findings.
//   - locksafe: no mutex held across channel operations, pool
//     acquisition, or calls that re-lock the same receiver; every path
//     from Lock to return must unlock.
//   - leaksafe: goroutines launched in result packages need a join/cancel
//     path (WaitGroup, channel, or pool slot).
//   - seedflow: rand sources in result packages must be seeded from
//     config/seed parameters or named constants, traced through
//     assignments and calls.
//
// Audited exceptions are annotated in source as `//lint:<key> <reason>` on
// the offending line or the line above; annotations without a reason, with
// an unknown key, or that no longer suppress anything are themselves
// findings, so the audit trail cannot rot.
//
// The suite runs three ways with identical results: `wivfi-lint ./...`
// (the CLI), `go test ./internal/lint` (the repo gate), and the CI lint
// step.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic: a contract violation or a rotten suppression
// annotation.
type Finding struct {
	File     string `json:"file"` // path relative to the module root
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Key      string `json:"key,omitempty"` // suppression key that would silence it
	Message  string `json:"message"`
}

// String renders the canonical `file:line: [analyzer] message` form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
}

// Analyzer is one named check run over every loaded package.
type Analyzer struct {
	Name string
	Doc  string
	// Keys lists the suppression keys this analyzer honours; a
	// `//lint:<key> reason` annotation is only considered "used" when its
	// key belongs to an analyzer that actually ran.
	Keys []string
	Run  func(*Pass)
}

// Pass hands one package to one analyzer.
type Pass struct {
	Config   Config
	Pkg      *Package
	analyzer *Analyzer
	suite    *Suite
}

// Reportf records a finding at pos unless an in-source annotation with the
// given suppression key covers that line. key may be empty for findings
// that must not be suppressible.
func (p *Pass) Reportf(pos token.Pos, key, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	line := position.Line
	if key != "" && p.Pkg.suppressions.use(position.Filename, line, key) {
		return
	}
	p.suite.findings = append(p.suite.findings, Finding{
		File:     p.suite.relPath(position.Filename),
		Line:     line,
		Analyzer: p.analyzer.Name,
		Key:      key,
		Message:  fmt.Sprintf(format, args...),
	})
}

// prog returns the whole-program index the suite built for this run.
func (p *Pass) prog() *progIndex {
	if p.suite.prog == nil {
		p.suite.prog = buildProgIndex([]*Package{p.Pkg})
	}
	return p.suite.prog
}

// Config scopes the analyzers. Paths are import paths; DefaultConfig wires
// the repo's real layout, tests substitute fixture packages.
type Config struct {
	// ModulePath is the module's import-path prefix ("wivfi").
	ModulePath string
	// ResultPackages are the packages whose outputs are regression-gated
	// byte-identical artifacts; the determinism analyzer runs only there.
	ResultPackages []string
	// StdoutAllowed are import-path prefixes permitted to write to stdout
	// (the render paths: cmd/*, examples/*).
	StdoutAllowed []string
	// NilsafePackages are scanned for collector types (types whose doc
	// comment declares the nil-receiver no-op contract).
	NilsafePackages []string
	// NilsafeTypes are always treated as collector types when present,
	// qualified as "import/path.TypeName" — deleting the doc comment must
	// not waive the check for the core primitives.
	NilsafeTypes []string
	// MetricFuncs are the constructors whose name argument must be a
	// declared constant, qualified as "import/path.FuncName".
	MetricFuncs []string
	// PoolTypes are the bounded worker-pool types whose Do/DoNamed/Each
	// methods acquire an admission slot (Each one per job), qualified as
	// "import/path.TypeName"; poolsafe guards their nested acquisition,
	// locksafe and leaksafe treat them as blocking/joining primitives.
	PoolTypes []string
	// HashRoots are the struct types whose JSON serialization feeds the
	// design-cache content hash; cachekey audits every struct reachable
	// from them through serialized fields.
	HashRoots []string
	// KeyFuncs are the cache-key constructors, qualified as
	// "import/path.FuncName"; request-struct fields must flow into a call
	// to one of them.
	KeyFuncs []string
	// RequestStructs are request-shaped structs (qualified type names)
	// whose every field must reach a KeyFuncs call.
	RequestStructs []string
}

// DefaultConfig returns the production configuration for this repo.
func DefaultConfig(modulePath string) Config {
	q := func(rels ...string) []string {
		out := make([]string, len(rels))
		for i, r := range rels {
			out[i] = modulePath + "/" + r
		}
		return out
	}
	return Config{
		ModulePath: modulePath,
		ResultPackages: q(
			"internal/noc", "internal/mapreduce", "internal/expt",
			"internal/vfi", "internal/qp", "internal/energy",
			"internal/topo", "internal/place", "internal/sched",
			"internal/stats", "internal/fidelity", "internal/serve",
			"internal/governor", "internal/sweep",
		),
		StdoutAllowed:   []string{modulePath + "/cmd/", modulePath + "/examples/"},
		NilsafePackages: q("internal/obs", "internal/timeline", "internal/governor"),
		NilsafeTypes: []string{
			modulePath + "/internal/timeline.Collector",
			modulePath + "/internal/timeline.Sampler",
			modulePath + "/internal/timeline.Histogram",
			modulePath + "/internal/timeline.Track",
			modulePath + "/internal/governor.Log",
		},
		MetricFuncs: []string{
			modulePath + "/internal/obs.NewCounter",
			modulePath + "/internal/obs.NewGauge",
			modulePath + "/internal/obs.RegisterHistogram",
		},
		PoolTypes: []string{modulePath + "/internal/sim.Pool"},
		HashRoots: []string{modulePath + "/internal/expt.Config"},
		KeyFuncs: []string{
			modulePath + "/internal/expt.RequestKey",
			modulePath + "/internal/expt.ConfigHash",
		},
		RequestStructs: []string{
			modulePath + "/internal/serve.Request",
			modulePath + "/internal/sweep.Scenario",
		},
	}
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		NilsafeAnalyzer,
		StdoutPureAnalyzer,
		CounterSafeAnalyzer,
		PoolSafeAnalyzer,
		CacheKeyAnalyzer,
		LockSafeAnalyzer,
		LeakSafeAnalyzer,
		SeedFlowAnalyzer,
	}
}

// AnalyzerNames returns the names of the full suite.
func AnalyzerNames() []string {
	all := Analyzers()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return names
}

// Select returns the analyzers named in only (comma-split elsewhere); an
// empty selection means the full suite. Unknown names are an error.
func Select(only []string) ([]*Analyzer, error) {
	all := Analyzers()
	if len(only) == 0 {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var sel []*Analyzer
	seen := map[string]bool{}
	for _, name := range only {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, strings.Join(AnalyzerNames(), ", "))
		}
		if !seen[name] {
			seen[name] = true
			sel = append(sel, a)
		}
	}
	return sel, nil
}

// Suite runs a set of analyzers over loaded packages and owns the finding
// list and suppression hygiene.
type Suite struct {
	Config    Config
	Analyzers []*Analyzer
	// Root is the directory findings are reported relative to (the module
	// root in production, the fixture dir in tests).
	Root string
	// Only, when non-nil, restricts analysis and suppression auditing to
	// the named import paths (the -pkgs CLI filter). Every loaded package
	// still contributes whole-program context (call graphs, hash trees);
	// Only just scopes where findings are reported.
	Only map[string]bool

	findings    []Finding
	prog        *progIndex
	hashStructs []*types.Named
}

// NewSuite returns a suite with the full analyzer set.
func NewSuite(cfg Config, root string) *Suite {
	return &Suite{Config: cfg, Analyzers: Analyzers(), Root: root}
}

func (s *Suite) relPath(file string) string {
	if s.Root == "" {
		return file
	}
	rel := strings.TrimPrefix(file, strings.TrimSuffix(s.Root, "/")+"/")
	return rel
}

// activeKeys returns the suppression keys honoured by the analyzers that
// ran, plus every key any analyzer registers (for unknown-key checks).
func (s *Suite) activeKeys() (active, known map[string]bool) {
	active = map[string]bool{}
	known = map[string]bool{}
	for _, a := range Analyzers() {
		for _, k := range a.Keys {
			known[k] = true
		}
	}
	for _, a := range s.Analyzers {
		for _, k := range a.Keys {
			active[k] = true
		}
	}
	return active, known
}

// Run analyzes the given packages and returns the sorted findings. It runs
// every configured analyzer over every analyzed package (all of them, or
// the Only subset), then audits the suppression annotations themselves: an
// annotation with no reason, an unknown key, or one that silenced nothing
// is a finding. The stale check is per-key: an unused annotation is only
// stale when the analyzer owning its key actually ran here — a -only or
// -pkgs run must not condemn annotations it never gave a chance to fire.
func (s *Suite) Run(pkgs []*Package) []Finding {
	s.prog = buildProgIndex(pkgs)
	analyzed := pkgs
	if s.Only != nil {
		analyzed = nil
		for _, pkg := range pkgs {
			if s.Only[pkg.ImportPath] {
				analyzed = append(analyzed, pkg)
			}
		}
	}
	for _, pkg := range analyzed {
		pkg.suppressions.reset() // a second Run over the same packages audits afresh
		for _, a := range s.Analyzers {
			a.Run(&Pass{Config: s.Config, Pkg: pkg, analyzer: a, suite: s})
		}
	}
	active, known := s.activeKeys()
	for _, pkg := range analyzed {
		for _, sup := range pkg.suppressions.all() {
			switch {
			case !known[sup.key]:
				s.findings = append(s.findings, Finding{
					File: s.relPath(sup.file), Line: sup.line, Analyzer: "annotation",
					Message: fmt.Sprintf("unknown suppression key %q (have %s)", sup.key, strings.Join(sortedKeys(known), ", ")),
				})
			case sup.reason == "":
				s.findings = append(s.findings, Finding{
					File: s.relPath(sup.file), Line: sup.line, Analyzer: "annotation",
					Message: fmt.Sprintf("//lint:%s needs a one-line justification after the key", sup.key),
				})
			case active[sup.key] && !sup.used:
				s.findings = append(s.findings, Finding{
					File: s.relPath(sup.file), Line: sup.line, Analyzer: "annotation",
					Message: fmt.Sprintf("//lint:%s suppresses nothing here — remove the stale annotation", sup.key),
				})
			}
		}
	}
	sort.Slice(s.findings, func(i, j int) bool {
		a, b := s.findings[i], s.findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return s.findings
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---- shared analyzer helpers ----------------------------------------------

// contains reports whether list has exactly s.
func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// hasPrefixAny reports whether s starts with any of the prefixes.
func hasPrefixAny(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// funcQName returns "import/path.Name" for a package-level function or
// method-less callee object, or "" when obj is not a function.
func funcQName(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return ""
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// calleeObject resolves the object a call expression invokes, looking
// through parens. Returns nil for builtins, conversions and indirect calls.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// isFloat reports whether t's core type is a floating-point kind.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
