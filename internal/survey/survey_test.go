package survey

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestTable1MatchesPaper(t *testing.T) {
	entries := Table1()
	if len(entries) != 19 {
		t.Fatalf("Table 1 has %d rows, want 19", len(entries))
	}
	// Spot checks against the paper's numbers.
	byName := map[string]Entry{}
	for _, e := range entries {
		byName[e.Name] = e
	}
	checks := []struct {
		name     string
		u99, u09 int
	}{
		{"Postmark", 30, 17},
		{"Ad-hoc", 237, 67},
		{"Filebench", 3, 5},
		{"Andrew", 15, 1},
		{"IOzone", 0, 4},
		{"Trace-based standard", 14, 17},
	}
	for _, c := range checks {
		e, ok := byName[c.name]
		if !ok {
			t.Errorf("missing row %q", c.name)
			continue
		}
		if e.Used9907 != c.u99 || e.Used0910 != c.u09 {
			t.Errorf("%s counts = (%d, %d), want (%d, %d)",
				c.name, e.Used9907, e.Used0910, c.u99, c.u09)
		}
	}
	// Dimension markers: IOmeter isolates I/O and nothing else.
	iom := byName["IOmeter"]
	if iom.Dims[core.DimIO] != core.Isolates || len(iom.Dims) != 1 {
		t.Errorf("IOmeter dims = %v", iom.Dims)
	}
	// Filebench: I/O •, scaling •, others ◦ (per the paper's row).
	fb := byName["Filebench"]
	if fb.Dims[core.DimIO] != core.Isolates || fb.Dims[core.DimScaling] != core.Isolates {
		t.Errorf("Filebench isolation markers wrong: %v", fb.Dims)
	}
	if fb.Dims[core.DimCaching] != core.Touches {
		t.Errorf("Filebench caching marker = %v, want touches", fb.Dims[core.DimCaching])
	}
}

func TestAdHocDominates(t *testing.T) {
	entries := Table1()
	share := AdHocShare(entries)
	// 67 of 162 total 2009–2010 uses.
	if share < 0.35 || share > 0.5 {
		t.Errorf("ad-hoc share = %v, want ~0.41", share)
	}
	// Ad-hoc must be the single most used entry in both periods.
	for _, e := range entries {
		if e.Name == "Ad-hoc" {
			continue
		}
		if e.Used0910 >= 67 || e.Used9907 >= 237 {
			t.Errorf("%s out-uses ad-hoc", e.Name)
		}
	}
}

func TestIsolatorsScarcity(t *testing.T) {
	isolators := func(d core.Dimension) []string {
		var out []string
		for _, e := range Table1() {
			if e.Kind == Tool && e.Dims[d] == core.Isolates {
				out = append(out, e.Name)
			}
		}
		return out
	}
	// The paper's point: no surveyed *tool* isolates on-disk, caching
	// isolation is rare, and meta-data has no isolating tool at all.
	if tools := isolators(core.DimOnDisk); len(tools) != 0 {
		t.Errorf("tools isolating on-disk: %v, want none", tools)
	}
	if tools := isolators(core.DimMetaData); len(tools) != 0 {
		t.Errorf("tools isolating meta-data: %v, want none", tools)
	}
	if tools := isolators(core.DimIO); len(tools) == 0 {
		t.Error("no tool isolates I/O; IOmeter should")
	}
}

func TestRender(t *testing.T) {
	var sb strings.Builder
	if err := Render(&sb, Table1()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Postmark", "Ad-hoc", "237", "2009-2010", "•", "◦", "⋆"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
}

func TestRenderCSV(t *testing.T) {
	var sb strings.Builder
	if err := RenderCSV(&sb, Table1()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 20 { // header + 19 rows
		t.Fatalf("CSV has %d lines, want 20", len(lines))
	}
	if !strings.Contains(lines[0], "benchmark,io") {
		t.Errorf("CSV header = %q", lines[0])
	}
	// The compile row contains a comma and must be quoted.
	found := false
	for _, l := range lines {
		if strings.Contains(l, "\"Compile (Apache, openssh, etc.)\"") {
			found = true
		}
	}
	if !found {
		t.Error("comma-containing name not quoted in CSV")
	}
}
