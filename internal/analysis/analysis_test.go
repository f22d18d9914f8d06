package analysis

import (
	"bytes"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader caches one loader (and its type-checked stdlib and
// module packages) across tests.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func getLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { loader, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loader
}

var wantRx = regexp.MustCompile(`// want "([^"]*)"`)

// runFixture loads testdata/<name>, runs the analyzer with its scope
// filter stripped (fixture packages live outside the real scopes on
// purpose), and diffs the reported diagnostics against the // want
// comments: every finding must match a want on its exact line, and
// every want must be consumed.
func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	l := getLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	unscoped := *a
	unscoped.Scope = nil
	diags := RunAnalyzers(l.Fset, []*Package{pkg}, []*Analyzer{&unscoped})

	type want struct {
		rx   *regexp.Regexp
		used bool
	}
	wants := map[string]map[int][]*want{} // file -> line -> wants
	for _, unit := range pkg.Units {
		for _, f := range unit.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRx.FindAllStringSubmatch(c.Text, -1) {
						pos := l.Fset.Position(c.Pos())
						if wants[pos.Filename] == nil {
							wants[pos.Filename] = map[int][]*want{}
						}
						wants[pos.Filename][pos.Line] = append(
							wants[pos.Filename][pos.Line], &want{rx: regexp.MustCompile(m[1])})
					}
				}
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants[d.File][d.Line] {
			if !w.used && w.rx.MatchString(d.Message) {
				w.used, matched = true, true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for file, lines := range wants {
		for line, ws := range lines {
			for _, w := range ws {
				if !w.used {
					t.Errorf("%s:%d: expected diagnostic matching %q, got none", file, line, w.rx)
				}
			}
		}
	}
}

func TestMapRangeFixture(t *testing.T)       { runFixture(t, MapRange, "maprange") }
func TestWallTimeFixture(t *testing.T)       { runFixture(t, WallTime, "walltime") }
func TestOwnerStampFixture(t *testing.T)     { runFixture(t, OwnerStamp, "ownerstamp") }
func TestStringerFreezeFixture(t *testing.T) { runFixture(t, StringerFreeze, "stringerfreeze") }

// TestMalformedIgnore pins both halves of the reason-less directive:
// it is reported as malformed AND it fails to suppress the finding
// underneath it.
func TestMalformedIgnore(t *testing.T) {
	l := getLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "malformed"))
	if err != nil {
		t.Fatal(err)
	}
	unscoped := *MapRange
	unscoped.Scope = nil
	diags := RunAnalyzers(l.Fset, []*Package{pkg}, []*Analyzer{&unscoped})
	var rules []string
	for _, d := range diags {
		rules = append(rules, d.Rule)
	}
	if len(diags) != 2 || diags[0].Rule != "fslint" || diags[1].Rule != "maprange" {
		t.Fatalf("want [fslint maprange] diagnostics, got %v: %v", rules, diags)
	}
	if !strings.Contains(diags[0].Message, "reason is required") {
		t.Errorf("malformed-ignore message does not demand a reason: %s", diags[0].Message)
	}
	if diags[0].Line != diags[1].Line-1 {
		t.Errorf("malformed ignore at line %d should sit directly above the finding at %d",
			diags[0].Line, diags[1].Line)
	}
}

// TestRepoIsClean runs every registered analyzer over the whole
// module: the lint pass must stay green, and a reintroduced
// violation fails tier-1 tests even before CI's lint job sees it.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	l := getLoader(t)
	dirs, err := Walk(l.ModuleRoot())
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	for _, d := range RunAnalyzers(l.Fset, pkgs, All()) {
		t.Errorf("%s", d)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := []Diagnostic{
		{Rule: "maprange", File: "internal/sim/x.go", Line: 10, Col: 2, Message: "range over map map[int]bool: iteration order is randomized"},
		{Rule: "ownerstamp", File: "internal/vfs/x.go", Line: 3, Col: 14, Message: "device.Request literal without Owner: the request will run as OwnerNone"},
		{Rule: "fslint", File: "a.go", Line: 1, Col: 1, Message: "malformed ignore"},
	}
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(in) {
		t.Fatalf("want one line per diagnostic, got %d lines for %d diagnostics", got, len(in))
	}
	out, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed diagnostics:\n in: %+v\nout: %+v", in, out)
	}
}

// TestWalkSkipsTestdata pins the loader's exclusions: fixture
// packages must never be linted as part of ./... — they exist to
// violate the rules.
func TestWalkSkipsTestdata(t *testing.T) {
	dirs, err := Walk(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("Walk returned fixture directory %s", d)
		}
	}
	if len(dirs) != 1 {
		t.Errorf("Walk of internal/analysis should find exactly this package, got %v", dirs)
	}
}
