// Package survey encodes the paper's Table 1: the benchmarks found in
// 100 surveyed papers (FAST, OSDI, ATC, HotStorage, SOSP, MSST
// 2009–2010, plus the 1999–2007 counts from Traeger & Zadok's
// nine-year study), which file-system dimensions each can evaluate,
// and how often each was used.
//
// The table is data, but it is the paper's central evidence that "there
// is little standardization in benchmark usage" — so the package also
// computes the summary statistics the paper draws from it.
package survey

import "repro/internal/core"

// Kind distinguishes tools from trace/production rows (the "⋆" rows).
type Kind int

// Row kinds.
const (
	Tool Kind = iota
	Custom
)

// Entry is one row of Table 1.
type Entry struct {
	Name string
	Kind Kind
	// Dims marks each dimension: core.Isolates for "•" (can evaluate
	// and isolate), core.Touches for "◦" (exercises but does not
	// isolate). Custom rows use Isolates to mean "⋆".
	Dims map[core.Dimension]core.Coverage
	// Used9907 and Used0910 are the usage counts for 1999–2007 and
	// 2009–2010.
	Used9907 int
	Used0910 int
}

func dims(pairs ...interface{}) map[core.Dimension]core.Coverage {
	m := map[core.Dimension]core.Coverage{}
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i].(core.Dimension)] = pairs[i+1].(core.Coverage)
	}
	return m
}

// Table1 returns the paper's Table 1, row for row.
func Table1() []Entry {
	iso := core.Isolates
	tch := core.Touches
	return []Entry{
		{Name: "IOmeter", Kind: Tool, Used9907: 2, Used0910: 3,
			Dims: dims(core.DimIO, iso)},
		{Name: "Filebench", Kind: Tool, Used9907: 3, Used0910: 5,
			Dims: dims(core.DimIO, iso, core.DimOnDisk, tch, core.DimCaching, tch,
				core.DimMetaData, tch, core.DimScaling, iso)},
		{Name: "IOzone", Kind: Tool, Used9907: 0, Used0910: 4,
			Dims: dims(core.DimIO, tch, core.DimOnDisk, tch, core.DimCaching, iso)},
		{Name: "Bonnie/Bonnie64/Bonnie++", Kind: Tool, Used9907: 2, Used0910: 0,
			Dims: dims(core.DimIO, tch, core.DimOnDisk, tch)},
		{Name: "Postmark", Kind: Tool, Used9907: 30, Used0910: 17,
			Dims: dims(core.DimOnDisk, tch, core.DimCaching, tch, core.DimMetaData, tch,
				core.DimScaling, iso)},
		{Name: "Linux compile", Kind: Tool, Used9907: 6, Used0910: 3,
			Dims: dims(core.DimOnDisk, tch, core.DimCaching, tch, core.DimMetaData, tch)},
		{Name: "Compile (Apache, openssh, etc.)", Kind: Tool, Used9907: 38, Used0910: 14,
			Dims: dims(core.DimOnDisk, tch, core.DimCaching, tch, core.DimMetaData, tch)},
		{Name: "DBench", Kind: Tool, Used9907: 1, Used0910: 1,
			Dims: dims(core.DimOnDisk, tch, core.DimCaching, tch, core.DimMetaData, tch)},
		{Name: "SPECsfs", Kind: Tool, Used9907: 7, Used0910: 1,
			Dims: dims(core.DimOnDisk, tch, core.DimCaching, tch, core.DimMetaData, tch,
				core.DimScaling, iso)},
		{Name: "Sort", Kind: Tool, Used9907: 0, Used0910: 5,
			Dims: dims(core.DimIO, tch, core.DimOnDisk, tch, core.DimCaching, iso)},
		{Name: "IOR: I/O Performance Benchmark", Kind: Tool, Used9907: 0, Used0910: 1,
			Dims: dims(core.DimIO, tch, core.DimOnDisk, tch, core.DimScaling, iso)},
		{Name: "Production workloads", Kind: Custom, Used9907: 2, Used0910: 2,
			Dims: dims(core.DimIO, iso, core.DimOnDisk, iso, core.DimCaching, iso,
				core.DimMetaData, iso)},
		{Name: "Ad-hoc", Kind: Custom, Used9907: 237, Used0910: 67,
			Dims: dims(core.DimIO, iso, core.DimOnDisk, iso, core.DimCaching, iso,
				core.DimMetaData, iso, core.DimScaling, iso)},
		{Name: "Trace-based custom", Kind: Custom, Used9907: 7, Used0910: 18,
			Dims: dims(core.DimIO, iso, core.DimOnDisk, iso, core.DimCaching, iso,
				core.DimMetaData, iso)},
		{Name: "Trace-based standard", Kind: Custom, Used9907: 14, Used0910: 17,
			Dims: dims(core.DimIO, iso, core.DimOnDisk, iso, core.DimCaching, iso,
				core.DimMetaData, iso)},
		{Name: "BLAST", Kind: Tool, Used9907: 0, Used0910: 2,
			Dims: dims(core.DimIO, tch, core.DimOnDisk, tch)},
		{Name: "Flexible FS Benchmark (FFSB)", Kind: Tool, Used9907: 0, Used0910: 1,
			Dims: dims(core.DimOnDisk, tch, core.DimCaching, tch, core.DimMetaData, tch,
				core.DimScaling, iso)},
		{Name: "Flexible I/O tester (fio)", Kind: Tool, Used9907: 0, Used0910: 1,
			Dims: dims(core.DimIO, tch, core.DimOnDisk, tch, core.DimCaching, tch,
				core.DimScaling, iso)},
		{Name: "Andrew", Kind: Tool, Used9907: 15, Used0910: 1,
			Dims: dims(core.DimOnDisk, tch, core.DimCaching, tch, core.DimMetaData, tch)},
	}
}

// Totals sums usage counts per period.
func Totals(entries []Entry) (used9907, used0910 int) {
	for _, e := range entries {
		used9907 += e.Used9907
		used0910 += e.Used0910
	}
	return used9907, used0910
}

// AdHocShare reports the fraction of 2009–2010 benchmark uses that
// were ad-hoc — the paper's headline statistic ("Ad-hoc testing ...
// was, by far, the most common choice").
func AdHocShare(entries []Entry) float64 {
	_, total := Totals(entries)
	if total == 0 {
		return 0
	}
	for _, e := range entries {
		if e.Name == "Ad-hoc" {
			return float64(e.Used0910) / float64(total)
		}
	}
	return 0
}
