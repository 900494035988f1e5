package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// loadFixtureProgram type-checks the testdata fixture package (plus its
// module-internal imports) into a Program targeting only the fixtures.
func loadFixtureProgram(t *testing.T) *Program {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := l.LoadProgram([]string{filepath.Join("testdata", "fixtures")})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// diagsByFile buckets diagnostics by fixture basename.
func diagsByFile(diags []Diagnostic) map[string][]Diagnostic {
	m := make(map[string][]Diagnostic)
	for _, d := range diags {
		m[filepath.Base(d.Pos.Filename)] = append(m[filepath.Base(d.Pos.Filename)], d)
	}
	return m
}

// fixtureWant is the acceptance contract: each known-bad fixture trips
// exactly one diagnostic of the named check; every other fixture file is
// clean.
var fixtureWant = map[string]string{
	"persistbad.go":          "persistcheck",
	"persistbad_trailing.go": "persistcheck",
	"interbad.go":            "persistcheck",
	"atombad.go":             "atomcheck",
	"fencebad.go":            "fencecheck",
	"fencecallerbad.go":      "fencecheck",
	"doubleflushbad.go":      "fencecheck",
	"lockinvbad.go":          "lockcheck",
	"lockdoublebad.go":       "lockcheck",
	"lockcrashbad.go":        "lockcheck",
	"atomfieldbad.go":        "atomfieldcheck",
	"relinkbad.go":           "persistcheck",
	"linebad.go":             "persistcheck",
	"lockbatchbad.go":        "lockcheck",
}

var fixtureClean = []string{
	"suppressed.go", "intergood.go", "locklevels.go", "atomfieldgood.go",
	"relinkgood.go", "linegood.go", "lockbatchgood.go",
}

func TestFixturesTriggerExactlyOneDiagnostic(t *testing.T) {
	t.Parallel()
	prog := loadFixtureProgram(t)
	byFile := diagsByFile(RunProgram(prog, nil))

	for file, check := range fixtureWant {
		got := byFile[file]
		if len(got) != 1 {
			t.Errorf("%s: got %d diagnostics %v, want exactly 1", file, len(got), got)
			continue
		}
		if got[0].Check != check {
			t.Errorf("%s: diagnostic from %s, want %s: %v", file, got[0].Check, check, got[0])
		}
	}
	for _, file := range fixtureClean {
		if got := byFile[file]; len(got) != 0 {
			t.Errorf("%s: want clean, got: %v", file, got)
		}
	}
	for file := range byFile {
		if _, known := fixtureWant[file]; !known {
			t.Errorf("unexpected diagnostics in %s: %v", file, byFile[file])
		}
	}
}

// TestBadFixturesRequireTheirAnalyzer pins each bad fixture to its
// analyzer: running only that analyzer still finds it (so the fixture
// fails loudly if the analyzer is disabled or gutted), and running all
// OTHER analyzers finds nothing in the file (the fixture exercises exactly
// the pass it names).
func TestBadFixturesRequireTheirAnalyzer(t *testing.T) {
	t.Parallel()
	prog := loadFixtureProgram(t)
	for file, check := range fixtureWant {
		c := ByName(check)
		if c == nil {
			t.Fatalf("unknown check %q", check)
		}
		only := diagsByFile(RunProgram(prog, []*Check{c}))
		if got := only[file]; len(got) != 1 {
			t.Errorf("%s: %s alone found %d diagnostics %v, want 1", file, check, len(got), got)
		}
		var others []*Check
		for _, o := range All {
			if o.Name != check {
				others = append(others, o)
			}
		}
		rest := diagsByFile(RunProgram(prog, others))
		if got := rest[file]; len(got) != 0 {
			t.Errorf("%s: with %s disabled, unexpected diagnostics remain: %v", file, check, got)
		}
	}
}

func TestDirectiveSpelling(t *testing.T) {
	t.Parallel()
	for _, d := range []string{Directive, DirectiveLocksOK, DirectiveAtomicOK, DirectiveLockLevel, DirectiveLockOrder} {
		if !strings.HasPrefix(d, "//denova:") {
			t.Fatalf("directive %q must use the //denova: namespace", d)
		}
	}
}

// TestRepoIsClean runs all passes over every first-party package and
// requires zero diagnostics: the tree must stay vet-clean (real findings
// get fixed, intentional patterns get a justified directive). This is the
// same sweep cmd/denova-vet performs in CI with an empty baseline, kept
// here so `go test` alone catches regressions.
func TestRepoIsClean(t *testing.T) {
	t.Parallel()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ExpandPatterns(l.ModuleDir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := l.LoadProgram(dirs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RunProgram(prog, nil) {
		t.Errorf("%s", d)
	}
}
