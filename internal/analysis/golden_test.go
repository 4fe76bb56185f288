package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenCases maps each fixture package under testdata/src to the
// analyzers exercised against it. AppliesTo filters are cleared so the
// fixtures do not need to live under the real engine paths.
var goldenCases = []struct {
	name      string
	analyzers func() []*Analyzer
}{
	{"determinism", func() []*Analyzer { return []*Analyzer{DeterminismAnalyzer()} }},
	{"hotpath", func() []*Analyzer { return []*Analyzer{HotPathAnalyzer()} }},
	{"invariants", func() []*Analyzer { return []*Analyzer{InvariantsAnalyzer()} }},
	{"errwrap", func() []*Analyzer { return []*Analyzer{ErrWrapAnalyzer()} }},
	{"metricshygiene", func() []*Analyzer { return []*Analyzer{MetricsHygieneAnalyzer()} }},
	{"seedtaint", func() []*Analyzer { return []*Analyzer{SeedTaintAnalyzer()} }},
	{"exhaustive", func() []*Analyzer { return []*Analyzer{ExhaustiveAnalyzer()} }},
	{"units", func() []*Analyzer { return []*Analyzer{UnitsAnalyzer()} }},
	{"purity", func() []*Analyzer { return []*Analyzer{PurityAnalyzer()} }},
	{"sharedstate", func() []*Analyzer { return []*Analyzer{SharedStateAnalyzer()} }},
	{"clockstep", func() []*Analyzer { return []*Analyzer{ClockStepAnalyzer()} }},
	{"skipsafe", func() []*Analyzer { return []*Analyzer{SkipSafeAnalyzer()} }},
	// The directive fixture tests the comment grammar itself; the
	// determinism analyzer is loaded so valid directives have something
	// real to suppress.
	{"directive", func() []*Analyzer { return []*Analyzer{DeterminismAnalyzer()} }},
}

func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			got := renderDiagnostics(t, filepath.Join("testdata", "src", tc.name), tc.analyzers())
			goldenPath := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics differ from %s:\n--- got ---\n%s--- want ---\n%s",
					goldenPath, got, want)
			}
		})
	}
}

// renderDiagnostics loads one fixture package, runs the analyzers with
// path scoping cleared, and formats the surviving diagnostics with
// fixture-relative paths (one per line).
func renderDiagnostics(t *testing.T, dir string, analyzers []*Analyzer) string {
	t.Helper()
	for _, a := range analyzers {
		a.AppliesTo = nil
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	for _, te := range pkg.TypeErrors {
		t.Fatalf("fixture %s does not type-check: %v", dir, te)
	}
	absDir, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, d := range Run([]*Package{pkg}, analyzers) {
		rel, err := filepath.Rel(absDir, d.File)
		if err != nil {
			rel = d.File
		}
		fixable := ""
		if d.Fix != nil {
			fixable = " [fixable]"
		}
		fmt.Fprintf(&b, "%s:%d:%d: [%s] %s%s\n", rel, d.Line, d.Column, d.Analyzer, d.Message, fixable)
	}
	return b.String()
}

// TestGoldenHasSuppressedCases guards the fixture contract: every
// fixture contains at least one //spawnvet:allow directive, and no
// diagnostic in its golden file lands on a directive-carrying line or
// the line below it (i.e. the suppression actually suppressed).
func TestGoldenHasSuppressedCases(t *testing.T) {
	for _, tc := range goldenCases {
		if tc.name == "directive" {
			continue // malformed directives intentionally fail to suppress
		}
		t.Run(tc.name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", "src", tc.name, tc.name+".go"))
			if err != nil {
				t.Fatal(err)
			}
			var allowLines []int
			for i, line := range strings.Split(string(src), "\n") {
				if strings.Contains(line, "//spawnvet:allow") {
					allowLines = append(allowLines, i+1)
				}
			}
			if len(allowLines) == 0 {
				t.Fatalf("fixture %s has no //spawnvet:allow case", tc.name)
			}
			golden, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			for _, al := range allowLines {
				for _, suppressed := range []int{al, al + 1} {
					prefix := fmt.Sprintf("%s.go:%d:", tc.name, suppressed)
					if strings.Contains(string(golden), "\n"+prefix) ||
						strings.HasPrefix(string(golden), prefix) {
						t.Errorf("golden reports a diagnostic at %s despite the allow directive on line %d", prefix, al)
					}
				}
			}
		})
	}
}

// TestRunTwiceSameAnalyzers pins that analyzers keep no state across
// Run invocations: `spawnvet -fix` re-analyzes with the same Analyzer
// values, and a module-wide table carried over from the first Run
// would report every registration as a duplicate of itself.
func TestRunTwiceSameAnalyzers(t *testing.T) {
	analyzers := []*Analyzer{MetricsHygieneAnalyzer()}
	first := loadFixture(t, "metricshygiene", analyzers...)
	second := loadFixture(t, "metricshygiene", analyzers...)
	if len(first) == 0 {
		t.Fatal("metricshygiene fixture reported nothing")
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Errorf("second Run differs from the first:\n--- first ---\n%v\n--- second ---\n%v", first, second)
	}
}
