package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden diagnostic files under testdata/lint")

// fixtureRoot is where the fixture packages and their goldens live.
func fixtureRoot(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", "lint"))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// fixtureLoader is the one Loader all fixture tests share, so the stdlib
// and repo packages the fixtures import are type-checked once per test
// binary rather than once per test. A Loader is not safe for concurrent
// use: tests that load fixtures must not call t.Parallel.
var fixtureLoader = sync.OnceValues(func() (*Loader, error) {
	mod, err := FindModule(".")
	if err != nil {
		return nil, err
	}
	return NewLoader(mod), nil
})

// loadFixtures loads the named fixture packages (dir names under
// testdata/lint) through the production loader, under their real
// module-qualified import paths so fixtures can import repo packages.
func loadFixtures(t *testing.T, names ...string) (*Module, []*Package, string) {
	t.Helper()
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	mod := loader.Module
	root := fixtureRoot(t)
	var pkgs []*Package
	for _, name := range names {
		dir := filepath.Join(root, name)
		path, err := loader.ImportPathFor(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := loader.LoadDir(dir, path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", name, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return mod, pkgs, root
}

// fixturePath returns the module import path of a fixture package.
func fixturePath(mod *Module, root, name string) string {
	rel, _ := filepath.Rel(mod.Root, filepath.Join(root, name))
	return mod.Path + "/" + filepath.ToSlash(rel)
}

// checkGolden compares findings against testdata/lint/<name>.golden,
// rewriting it under -update.
func checkGolden(t *testing.T, root, name string, findings []Finding) {
	t.Helper()
	var b strings.Builder
	for _, f := range findings {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	got := b.String()
	goldenPath := filepath.Join(root, name+".golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run `go test ./internal/lint -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics mismatch (run `go test ./internal/lint -update` after auditing)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// runFixture runs the FULL suite (cross-analyzer silence is part of each
// golden) over the pos+neg fixture pair with cfg scoped by scope.
func runFixture(t *testing.T, golden string, fixtures []string, scope func(cfg *Config, paths []string)) {
	t.Helper()
	mod, pkgs, root := loadFixtures(t, fixtures...)
	cfg := DefaultConfig(mod.Path)
	paths := make([]string, len(fixtures))
	for i, name := range fixtures {
		paths[i] = fixturePath(mod, root, name)
	}
	scope(&cfg, paths)
	suite := NewSuite(cfg, root)
	checkGolden(t, root, golden, suite.Run(pkgs))
}

func TestDeterminismFixtures(t *testing.T) {
	runFixture(t, "determinism", []string{"det_pos", "det_neg"},
		func(cfg *Config, paths []string) { cfg.ResultPackages = paths })
}

func TestNilsafeFixtures(t *testing.T) {
	runFixture(t, "nilsafe", []string{"nilsafe_pos", "nilsafe_neg"},
		func(cfg *Config, paths []string) { cfg.NilsafePackages = paths })
}

func TestStdoutPureFixtures(t *testing.T) {
	// stdoutpure needs no scoping: any package outside the allowed
	// prefixes is checked, which is exactly what the fixtures are.
	runFixture(t, "stdoutpure", []string{"stdout_pos", "stdout_neg"},
		func(cfg *Config, paths []string) {})
}

func TestCounterSafeFixtures(t *testing.T) {
	runFixture(t, "countersafe", []string{"counter_pos", "counter_neg"},
		func(cfg *Config, paths []string) {})
}

func TestSweepFixtures(t *testing.T) {
	// The sweep fixtures exercise both analyzers the real package must
	// satisfy at once: countersafe (sweep.* names are declared constants)
	// and determinism (sweep is a result package; wall clock only behind
	// a reasoned //lint:wallclock).
	runFixture(t, "sweepmetrics", []string{"sweep_pos", "sweep_neg"},
		func(cfg *Config, paths []string) { cfg.ResultPackages = append(cfg.ResultPackages, paths...) })
}

func TestPoolSafeFixtures(t *testing.T) {
	// The fixtures import the real wivfi/internal/sim.Pool, which the
	// default config already names in PoolTypes — no scoping needed.
	runFixture(t, "poolsafe", []string{"poolsafe_pos", "poolsafe_neg"},
		func(cfg *Config, paths []string) {})
}

// scopeCacheKey points the cachekey roots at the fixtures' local
// Config/Request/KeyOf declarations.
func scopeCacheKey(cfg *Config, paths []string) {
	cfg.HashRoots = nil
	cfg.KeyFuncs = nil
	cfg.RequestStructs = nil
	for _, p := range paths {
		cfg.HashRoots = append(cfg.HashRoots, p+".Config")
		cfg.KeyFuncs = append(cfg.KeyFuncs, p+".KeyOf")
		cfg.RequestStructs = append(cfg.RequestStructs, p+".Request")
	}
}

func TestCacheKeyFixtures(t *testing.T) {
	runFixture(t, "cachekey", []string{"cachekey_pos", "cachekey_neg"}, scopeCacheKey)
}

func TestLockSafeFixtures(t *testing.T) {
	// locksafe has no package gate: the lock discipline holds everywhere.
	runFixture(t, "locksafe", []string{"locksafe_pos", "locksafe_neg"},
		func(cfg *Config, paths []string) {})
}

func TestLeakSafeFixtures(t *testing.T) {
	runFixture(t, "leaksafe", []string{"leaksafe_pos", "leaksafe_neg"},
		func(cfg *Config, paths []string) { cfg.ResultPackages = paths })
}

func TestSeedFlowFixtures(t *testing.T) {
	runFixture(t, "seedflow", []string{"seedflow_pos", "seedflow_neg"},
		func(cfg *Config, paths []string) { cfg.ResultPackages = paths })
}

func TestAnnotationHygieneFixtures(t *testing.T) {
	// The package is made a result package so the reasonless //lint:wallclock
	// provably fails to suppress the determinism finding it sits on.
	runFixture(t, "annotation", []string{"annot_pos"},
		func(cfg *Config, paths []string) { cfg.ResultPackages = paths })
}

// TestNegativesStayClean pins the core property of every *_neg fixture: a
// full-default-suite run over all of them together yields nothing.
func TestNegativesStayClean(t *testing.T) {
	names := []string{
		"det_neg", "nilsafe_neg", "stdout_neg", "counter_neg", "sweep_neg",
		"poolsafe_neg", "cachekey_neg", "locksafe_neg", "leaksafe_neg", "seedflow_neg",
	}
	mod, pkgs, root := loadFixtures(t, names...)
	cfg := DefaultConfig(mod.Path)
	for _, name := range names {
		p := fixturePath(mod, root, name)
		cfg.ResultPackages = append(cfg.ResultPackages, p)
		cfg.NilsafePackages = append(cfg.NilsafePackages, p)
	}
	// Aim the cachekey roots at the fixture's local declarations too, so
	// its negatives are exercised (not just unconfigured).
	ck := fixturePath(mod, root, "cachekey_neg")
	cfg.HashRoots = append(cfg.HashRoots, ck+".Config")
	cfg.KeyFuncs = append(cfg.KeyFuncs, ck+".KeyOf")
	cfg.RequestStructs = append(cfg.RequestStructs, ck+".Request")
	if findings := NewSuite(cfg, root).Run(pkgs); len(findings) != 0 {
		for _, f := range findings {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}
