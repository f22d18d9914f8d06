package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestJSONOutput drives the CLI path end to end against a seeded
// fixture: findings come out one JSON object per line, positions are
// module-root-relative, and the stream round-trips through the
// decoder that downstream tooling would use.
func TestJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	diags, err := run([]string{"../../internal/analysis/testdata/ownerstamp"}, true, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 3 {
		t.Fatalf("ownerstamp fixture has 3 unsuppressed findings, got %d: %v", len(diags), diags)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(diags) {
		t.Errorf("want one JSON line per diagnostic, got %d lines for %d findings", got, len(diags))
	}
	decoded, err := analysis.DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range decoded {
		if d != diags[i] {
			t.Errorf("diagnostic %d changed in transit: %+v vs %+v", i, d, diags[i])
		}
		if d.Rule != "ownerstamp" {
			t.Errorf("diagnostic %d: rule %q, want ownerstamp", i, d.Rule)
		}
		if d.File != "internal/analysis/testdata/ownerstamp/fixture.go" {
			t.Errorf("diagnostic %d: position %q not module-root-relative", i, d.File)
		}
	}
}

// TestExpandWildcard pins the pattern grammar: "./..." walks package
// directories and skips testdata.
func TestExpandWildcard(t *testing.T) {
	dirs, err := expand([]string{"../../internal/analysis/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 || !strings.HasSuffix(dirs[0], "analysis") {
		t.Errorf("expand found %v, want just the analysis package dir", dirs)
	}
}
