package main

import (
	"bytes"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
)

func TestTableIOutput(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-table", "1"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"x1 + 1 = 0", "x2 = 0", "x3 = 0"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table I output missing %q:\n%s", want, s)
		}
	}
}

func TestFig2Output(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-table", "fig2"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "6 clauses") || !strings.Contains(s, "11 clauses") {
		t.Fatalf("Fig 2 counts missing:\n%s", s)
	}
}

func TestTableIISmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline matrix")
	}
	var out, errw bytes.Buffer
	// One instance per family with a small timeout: exercises the whole
	// matrix quickly.
	if err := run([]string{"-table", "2", "-count", "1", "-timeout", "1s"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"MiniSat", "Lingeling", "CryptoMiniSat5", "SR-", "Simon-", "Bitcoin-", "SAT-2017", "w/o"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table II output missing %q:\n%s", want, s)
		}
	}
}

func TestUnknownTable(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-table", "9"}, &out, &errw); err == nil {
		t.Fatal("unknown table accepted")
	}
}

// compareRows runs -compare without a gate and splits its rows into
// paired metrics and those only in the old or the new file.
func compareRows(t *testing.T, oldPath, newPath string) (paired int, onlyOld, onlyNew []string) {
	t.Helper()
	var out, errw bytes.Buffer
	if err := run([]string{"-compare", "-gate=-1", oldPath, newPath}, &out, &errw); err != nil {
		t.Fatalf("%s -> %s: %v", oldPath, newPath, err)
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		name := strings.Fields(line)[0]
		switch {
		case name == "metric" || name == "note:":
		case strings.HasSuffix(line, "(only in old)"):
			onlyOld = append(onlyOld, name)
		case strings.HasSuffix(line, "(only in new)"):
			onlyNew = append(onlyNew, name)
		default:
			paired++
		}
	}
	return paired, onlyOld, onlyNew
}

// Every adjacent pair of frozen snapshots pairs the metrics it paired
// before the records existed: the adapter folds each generation's
// medians_ns and cdcl sections into the records' keys.
func TestCompareFrozenPairs(t *testing.T) {
	for _, tc := range []struct {
		old, new         string
		paired, unpaired int
	}{
		{"BENCH_pr1.json", "BENCH_pr5.json", 4, 18},
		{"BENCH_pr5.json", "BENCH_pr6.json", 22, 0},
		{"BENCH_pr6.json", "BENCH_pr7.json", 22, 12},
		{"BENCH_pr7.json", "BENCH_pr8.json", 34, 8},
		{"BENCH_pr8.json", "BENCH_pr10.json", 42, 10},
	} {
		paired, onlyOld, onlyNew := compareRows(t, "../../"+tc.old, "../../"+tc.new)
		if paired != tc.paired || len(onlyOld)+len(onlyNew) != tc.unpaired {
			t.Errorf("%s -> %s: %d paired, %d unpaired; want %d, %d",
				tc.old, tc.new, paired, len(onlyOld)+len(onlyNew), tc.paired, tc.unpaired)
		}
	}
}

// A full-scale file from the writer pairs with BENCH_pr10.json on all 51
// metrics pr10 shares with it. Only pr10's retired many-worker
// elimination is missing, and only the allocs and bytes of the families
// pr10 timed without them are new.
func TestSnapshotPairsWithLatestFrozen(t *testing.T) {
	var recs []bench.Measurement
	for _, fam := range bench.KernelFamilies(false, 1) {
		for _, job := range fam.Jobs {
			for _, arm := range fam.Arms {
				recs = append(recs, bench.Measurement{Name: fam.RecordName(job.Name, arm.Name), NsPerOp: 1})
			}
		}
	}
	path := filepath.Join(t.TempDir(), "full.json")
	if err := writeSnapshot(path, snapshot{Seed: 1, Records: recs}); err != nil {
		t.Fatal(err)
	}
	paired, onlyOld, onlyNew := compareRows(t, "../../BENCH_pr10.json", path)
	if paired != 51 || len(onlyOld) != 1 || onlyOld[0] != "rref_m4r_1024_wN_ns" {
		t.Errorf("%d paired, only in pr10 %v; want 51 and [rref_m4r_1024_wN_ns]", paired, onlyOld)
	}
	for _, name := range onlyNew {
		if strings.HasPrefix(name, "cdcl_") || strings.HasSuffix(name, "_ns") {
			t.Errorf("%s only in the new file", name)
		}
	}
}

// -compare gates every timing and the CDCL records' allocs and bytes; the
// other records' allocs and bytes are listed but never fail the gate.
func TestCompareGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs ...bench.Measurement) string {
		path := filepath.Join(dir, name)
		if err := writeSnapshot(path, snapshot{Seed: 1, Records: recs}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := []bench.Measurement{
		{Name: "cdcl_conflict_php-8-7", NsPerOp: 100, AllocsPerOp: 100, BytesPerOp: 100},
		{Name: "cube_php-9-8_w2", NsPerOp: 100, AllocsPerOp: 100, BytesPerOp: 100},
	}
	old := write("old.json", base...)
	for _, tc := range []struct {
		rec  int
		edit func(*bench.Measurement)
		fail bool
	}{
		{1, func(m *bench.Measurement) { m.AllocsPerOp, m.BytesPerOp = 200, 200 }, false},
		{1, func(m *bench.Measurement) { m.NsPerOp = 200 }, true},
		{0, func(m *bench.Measurement) { m.AllocsPerOp = 200 }, true},
		{0, func(m *bench.Measurement) { m.BytesPerOp = 200 }, true},
	} {
		recs := slices.Clone(base)
		tc.edit(&recs[tc.rec])
		var out, errw bytes.Buffer
		err := run([]string{"-compare", old, write("new.json", recs...)}, &out, &errw)
		if (err != nil) != tc.fail {
			t.Errorf("%+v against %+v: err = %v, want failure %v", recs[tc.rec], base[tc.rec], err, tc.fail)
		}
	}
}
