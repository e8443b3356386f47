package exp

import (
	"bytes"
	"encoding/csv"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func tinyChar() CharOptions {
	o := DefaultCharOptions()
	o.Rows = 8
	return o
}

func tinySys() SysOptions {
	o := DefaultSysOptions()
	o.Workloads = []string{"429.mcf", "453.povray"}
	o.MixCount = 1
	o.Instructions = 15_000
	o.Warmup = 1_500
	o.NRHs = []int{256}
	return o
}

// claimTables returns the RFM@64 rows of the default-scale Figs. 17
// and 18 tables (internal/scenario/testdata/figures.golden), the shape
// scenario.ClaimFigures returns, for tests that cannot import scenario.
func claimTables() (fig17, fig18 *Table) {
	table := func(id string, rows [4][2]float64) *Table {
		t := &Table{ID: id, Columns: claimColumns}
		for i, config := range []string{"NoPaCRAM", "PaCRAM-H", "PaCRAM-M", "PaCRAM-S"} {
			t.AddRow(config, "RFM", 64, rows[i][0], rows[i][1])
		}
		return t
	}
	return table("fig17", [4][2]float64{{0.9742, 0.9731}, {0.9870, 0.9878}, {0.9858, 0.9879}, {0.9866, 0.9853}}),
		table("fig18", [4][2]float64{{1.0470, 1.0570}, {1.0299, 1.0341}, {1.0299, 1.0281}, {1.0373, 1.0455}})
}

func findRows(t *Table, match func(row []string) bool) [][]string {
	var out [][]string
	for _, r := range t.Rows {
		if match(r) {
			out = append(out, r)
		}
	}
	return out
}

func cellF(t *testing.T, row []string, i int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[i], 64)
	if err != nil {
		t.Fatalf("cell %d of %v not a float: %v", i, row, err)
	}
	return v
}

func render(t *testing.T, tbl *Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo", Columns: []string{"a", "b"}}
	tbl.AddRow("one", 1.5)
	tbl.AddRow("two", 12345.0)
	tbl.Notes = append(tbl.Notes, "a note")
	var txt, csv bytes.Buffer
	if err := tbl.Fprint(&txt); err != nil {
		t.Fatal(err)
	}
	if err := tbl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "demo") || !strings.Contains(txt.String(), "a note") {
		t.Fatalf("text rendering missing pieces:\n%s", txt.String())
	}
	if !strings.HasPrefix(csv.String(), "a,b\n") {
		t.Fatalf("csv header wrong: %q", csv.String())
	}
	if !strings.Contains(csv.String(), "one,1.5000") {
		t.Fatalf("csv body wrong: %q", csv.String())
	}
}

// TestWriteCSVRoundTrip reads WriteCSV's output back with
// encoding/csv: every table, including cells with commas, quotes, line
// breaks and leading spaces, must come back as exactly its columns and
// rows.
func TestWriteCSVRoundTrip(t *testing.T) {
	co := tinyChar()
	co.Rows = 12
	fig17, fig18 := claimTables()
	takeaways, err := Takeaways(co, fig17, fig18)
	if err != nil {
		t.Fatal(err)
	}
	tricky := &Table{ID: "tricky", Columns: []string{"name", "value, unit"}}
	tricky.AddRow(`say "hi"`, "two\nlines")
	tricky.AddRow(" leading space", "")
	for _, tbl := range []*Table{takeaways, AreaReport(), tricky} {
		var buf bytes.Buffer
		if err := tbl.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := csv.NewReader(&buf).ReadAll()
		if err != nil {
			t.Fatalf("%s: CSV does not parse: %v", tbl.ID, err)
		}
		want := append([][]string{tbl.Columns}, tbl.Rows...)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: CSV read back as\n%q\nwant\n%q", tbl.ID, got, want)
		}
	}
}

// TestWriteCSVFile: the file variant creates its directory and writes
// WriteCSV's bytes to <dir>/<ID>.csv, and reports a directory it cannot
// create.
func TestWriteCSVFile(t *testing.T) {
	tbl := AreaReport()
	dir := t.TempDir() + "/out/csv"
	if err := tbl.WriteCSVFile(dir); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dir + "/" + tbl.ID + ".csv")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := tbl.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("file holds %q, want %q", got, want.Bytes())
	}
	if err := tbl.WriteCSVFile(dir + "/" + tbl.ID + ".csv/sub"); err == nil {
		t.Fatal("a directory under a file was accepted")
	}
}

// checkGolden compares got with the committed golden file, naming the
// first line that differs.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s: line %d differs:\n got %q\nwant %q", path, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(g), len(w))
}

// TestCharacterizationGolden renders every characterization table at
// the default scale, in `characterize -exp all` order, and compares the
// bytes with that command's golden output.
func TestCharacterizationGolden(t *testing.T) {
	o := DefaultCharOptions()
	var buf bytes.Buffer
	for _, build := range []func(CharOptions) (*Table, error){
		Table1, Fig4, Fig6, Fig7, Fig8, Fig9, Fig10, Fig11, Fig12, Fig13, Fig14, Table3,
	} {
		tbl, err := build(o)
		if err != nil {
			t.Fatal(err)
		}
		buf.WriteString(render(t, tbl))
	}
	buf.WriteString(render(t, Profiling()))
	checkGolden(t, "testdata/characterize.golden", buf.String())
}

// TestModulesRejectsDuplicates: a module listed twice would count its
// rows twice in every pooled figure, so it is an error naming the ID.
func TestModulesRejectsDuplicates(t *testing.T) {
	o := tinyChar()
	o.Modules = []string{"H5", "M2", "H5"}
	_, err := Fig6(o)
	if err == nil || !strings.Contains(err.Error(), "H5") {
		t.Fatalf("Fig6 with H5 listed twice: err = %v, want an error naming H5", err)
	}
}

func TestTable1Inventory(t *testing.T) {
	tbl, err := Table1(tinyChar())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 30 {
		t.Fatalf("table1 has %d rows, want 30", len(tbl.Rows))
	}
	if !strings.Contains(tbl.Notes[0], "388 chips") {
		t.Fatalf("note: %v", tbl.Notes)
	}
}

func TestFig6Shape(t *testing.T) {
	o := tinyChar()
	o.Modules = []string{"H5", "M2", "S6"}
	tbl, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	// Mfr. S medians must decline as tRAS drops; Mfr. M stays ~1.
	var sNom, sLow, mLow float64 = -1, -1, -1
	for _, r := range tbl.Rows {
		switch {
		case r[0] == "S" && r[1] == "1.0000":
			sNom = cellF(t, r, 4)
		case r[0] == "S" && r[1] == "0.4500":
			sLow = cellF(t, r, 4)
		case r[0] == "M" && r[1] == "0.2700":
			mLow = cellF(t, r, 4)
		}
	}
	if sNom < 0 || sLow < 0 || mLow < 0 {
		t.Fatalf("expected rows missing:\n%v", tbl.Rows)
	}
	if sLow >= sNom {
		t.Fatalf("Mfr. S median did not decline: %.2f -> %.2f", sNom, sLow)
	}
	if mLow < 0.95 {
		t.Fatalf("Mfr. M median at 0.27 = %.2f, want ~1", mLow)
	}
}

func TestFig7And8(t *testing.T) {
	o := tinyChar()
	o.Modules = []string{"S6"}
	t7, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(t7.Rows) == 0 {
		t.Fatal("fig7 empty")
	}
	o.Modules = nil
	t8, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(t8.Rows) == 0 {
		t.Fatal("fig8 empty")
	}
	for _, r := range t8.Rows {
		if ratio := cellF(t, r, 3); ratio <= 0 || ratio > 1.3 {
			t.Fatalf("fig8 ratio %g out of range in %v", ratio, r)
		}
	}
}

func TestFig9BERGrows(t *testing.T) {
	o := tinyChar()
	o.Modules = []string{"S6"}
	tbl, err := Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	var nom, low float64 = -1, -1
	for _, r := range tbl.Rows {
		if r[0] == "S" && r[1] == "1.0000" {
			nom = cellF(t, r, 4)
		}
		if r[0] == "S" && r[1] == "0.3600" {
			low = cellF(t, r, 4)
		}
	}
	if low <= nom {
		t.Fatalf("S BER median did not grow as tRAS dropped: %.2f -> %.2f", nom, low)
	}
}

func TestFig11RepeatsHurtS(t *testing.T) {
	o := tinyChar()
	o.Modules = []string{"S6"}
	tbl, err := Fig11(o)
	if err != nil {
		t.Fatal(err)
	}
	var one, five float64 = -1, -1
	for _, r := range tbl.Rows {
		if r[0] == "S" && r[1] == "0.2700" && r[2] == "1" {
			one = cellF(t, r, 5)
		}
		if r[0] == "S" && r[1] == "0.2700" && r[2] == "5" {
			five = cellF(t, r, 5)
		}
	}
	if one < 0 || five < 0 {
		t.Fatal("fig11 rows missing")
	}
	if five > one {
		t.Fatalf("S6@0.27: NRH median grew with repeats: %.2f -> %.2f", one, five)
	}
}

func TestFig12Table(t *testing.T) {
	o := tinyChar()
	tbl, err := Fig12(o)
	if err != nil {
		t.Fatal(err)
	}
	// S6 must reach 0 (retention failures) by 15K restores at 0.36;
	// M2 must not.
	var s15k, m15k float64 = -1, -1
	for _, r := range tbl.Rows {
		if r[0] == "S6" && r[1] == "15000" {
			s15k = cellF(t, r, 4) // median
		}
		if r[0] == "M2" && r[1] == "15000" {
			m15k = cellF(t, r, 4)
		}
	}
	if s15k != 0 {
		t.Fatalf("S6 median after 15K restores = %.2f, want 0", s15k)
	}
	if m15k < 0.95 {
		t.Fatalf("M2 median after 15K restores = %.2f, want ~1", m15k)
	}
}

func TestFig13UShapeAndMfrS(t *testing.T) {
	o := tinyChar()
	o.Rows = 16
	o.Modules = []string{"H7", "S6"}
	tbl, err := Fig13(o)
	if err != nil {
		t.Fatal(err)
	}
	get := func(mod, factor string) float64 {
		for _, r := range tbl.Rows {
			if r[0] == mod && r[1] == factor && r[2] == "1" {
				return cellF(t, r, 5)
			}
		}
		t.Fatalf("row %s@%s missing", mod, factor)
		return 0
	}
	if get("S6", "1.0000") != 0 {
		t.Fatal("Mfr. S must show no Half-Double bitflips")
	}
	nom, mid, low := get("H7", "1.0000"), get("H7", "0.3600"), get("H7", "0.1800")
	if !(mid < nom && low > mid) {
		t.Fatalf("H7 Half-Double percentages not U-shaped: %.1f / %.1f / %.1f", nom, mid, low)
	}
}

func TestFig14RetentionShape(t *testing.T) {
	o := tinyChar()
	o.Rows = 16
	o.Modules = []string{"S6"}
	tbl, err := Fig14(o)
	if err != nil {
		t.Fatal(err)
	}
	get := func(factor string, restores, wait string) float64 {
		for _, r := range tbl.Rows {
			if r[2] == factor && r[3] == restores && r[4] == wait {
				return cellF(t, r, 5)
			}
		}
		t.Fatalf("row %s/%s/%s missing", factor, restores, wait)
		return 0
	}
	if get("1.0000", "1", "64.00") != 0 {
		t.Fatal("nominal latency must show no retention failures at 64ms")
	}
	if a, b := get("0.2700", "10", "64.00"), get("0.2700", "10", "1024"); b < a {
		t.Fatalf("failures shrank with wait: %g -> %g", a, b)
	}
}

func TestFig4InflectionExists(t *testing.T) {
	o := tinyChar()
	tbl, err := Fig4(o)
	if err != nil {
		t.Fatal(err)
	}
	// For H5 the total time cost must dip below 1.0 somewhere (the
	// motivation: reducing tRAS reduces total preventive-refresh time).
	best := 10.0
	for _, r := range tbl.Rows {
		if r[0] != "H5" || r[5] == "inf" {
			continue
		}
		if v := cellF(t, r, 5); v < best {
			best = v
		}
	}
	if best >= 1.0 {
		t.Fatalf("no total-time reduction found for H5 (best %.2f)", best)
	}
}

func TestTable3Agreement(t *testing.T) {
	o := tinyChar()
	o.Modules = []string{"H5", "M2", "S6"}
	tbl, err := Table3(o)
	if err != nil {
		t.Fatal(err)
	}
	// Mean absolute error between measured and published ratios must
	// stay moderate at this tiny sample size.
	var sum float64
	var n int
	for _, r := range tbl.Rows {
		if r[5] == "-" {
			continue
		}
		sum += cellF(t, r, 5)
		n++
	}
	if n == 0 {
		t.Fatal("no comparable rows")
	}
	if mae := sum / float64(n); mae > 0.12 {
		t.Fatalf("measured-vs-published MAE %.3f too high", mae)
	}
}

func TestTable4Derivation(t *testing.T) {
	tbl, err := Table4(1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 30*6 {
		t.Fatalf("table4 has %d rows, want %d", len(tbl.Rows), 30*6)
	}
	na := 0
	for _, r := range tbl.Rows {
		if r[2] == "N/A" {
			na++
		}
	}
	// The registry has red cells; the no-bitflip module contributes 6.
	if na < 20 {
		t.Fatalf("only %d N/A rows; red cells not propagated", na)
	}
}

func TestAreaReport(t *testing.T) {
	tbl := AreaReport()
	if len(tbl.Rows) < 5 {
		t.Fatal("area report too small")
	}
}

func TestFig10TemperatureInsensitive(t *testing.T) {
	o := tinyChar()
	o.Modules = []string{"S6"}
	tbl, err := Fig10(o)
	if err != nil {
		t.Fatal(err)
	}
	// Takeaway 4: the normalized NRH median at a given factor moves
	// negligibly between 50C and 80C.
	get := func(temp string) float64 {
		for _, r := range tbl.Rows {
			if r[1] == "NRH" && r[2] == temp && r[3] == "0.4500" {
				return cellF(t, r, 6)
			}
		}
		t.Fatalf("row for %s missing", temp)
		return 0
	}
	cold, hot := get("50.00"), get("80.00")
	if diff := cold - hot; diff > 0.05 || diff < -0.05 {
		t.Fatalf("temperature moved normalized NRH: %.3f vs %.3f", cold, hot)
	}
}

func TestProfilingTable(t *testing.T) {
	tbl := Profiling()
	if len(tbl.Rows) != 5 {
		t.Fatalf("profiling table has %d rows", len(tbl.Rows))
	}
	found := false
	for _, r := range tbl.Rows {
		if strings.Contains(r[0], "throughput") && strings.HasPrefix(r[1], "127") {
			found = true
		}
	}
	if !found {
		t.Fatalf("127 KB/s headline missing: %v", tbl.Rows)
	}
}

// TestClaimsReadFigureCells: T7/T8 and C2.1/C2.2 quote the RFM@64
// NoPaCRAM and PaCRAM-H cells of the Figs. 17 and 18 tables and hold
// only when PaCRAM-H improves both columns.
func TestClaimsReadFigureCells(t *testing.T) {
	fig17, fig18 := claimTables()
	perf, energy, err := readGains(fig17, fig18)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := perf.String(), "RFM@64+PaCRAM-H: 1-core 0.9742->0.9870, 4-core 0.9731->0.9878"; got != want {
		t.Errorf("fig17 evidence = %q, want %q", got, want)
	}
	if got, want := energy.String(), "RFM@64+PaCRAM-H: 1-core 1.0470->1.0299, 4-core 1.0570->1.0341"; got != want {
		t.Errorf("fig18 evidence = %q, want %q", got, want)
	}
	if !perf.raises() || perf.lowers() || !energy.lowers() || energy.raises() {
		t.Errorf("verdicts: perf raises %v lowers %v, energy raises %v lowers %v",
			perf.raises(), perf.lowers(), energy.raises(), energy.lowers())
	}
	// A PaCRAM-H multi-core cell below NoPaCRAM's fails the claim.
	fig17.Rows[1][4] = "0.9700"
	if perf, _, _ := readGains(fig17, fig18); perf.raises() {
		t.Error("perf raises with a worse multi-core PaCRAM-H cell")
	}
}

// TestClaimsRejectBadFigures: a figure table without the rows or cells
// the claims read is an error, not a verdict.
func TestClaimsRejectBadFigures(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		edit       func(*Table)
	}{
		{"missing row", "no PaCRAM-H row", func(t *Table) { t.Rows = append(t.Rows[:1], t.Rows[2:]...) }},
		{"bad cell", "NoPaCRAM singleCoreNorm", func(t *Table) { t.Rows[0][3] = "n/a" }},
		{"repeated row", "more than one NoPaCRAM row", func(t *Table) { t.Rows = append(t.Rows, t.Rows[0]) }},
		{"other columns", "want [", func(t *Table) { t.Columns = t.Columns[:4] }},
	} {
		fig17, fig18 := claimTables()
		tc.edit(fig18)
		if _, err := Takeaways(tinyChar(), fig17, fig18); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Takeaways err = %v, want one containing %q", tc.name, err, tc.want)
		}
		if _, err := ArtifactClaims(tinyChar(), fig17, fig18); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ArtifactClaims err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCharScaleValidated: a scale no measurement can run at is an
// error naming the flag, from a characterization builder and from the
// claims, not a panic or an empty table.
func TestCharScaleValidated(t *testing.T) {
	fig17, fig18 := claimTables()
	for _, tc := range []struct {
		flag string
		edit func(*CharOptions)
	}{
		{"-rows", func(o *CharOptions) { o.Rows = 0 }},
		{"-rows", func(o *CharOptions) { o.Rows = -3 }},
		{"-bankrows", func(o *CharOptions) { o.BankRows = 0 }},
		{"-bankrows", func(o *CharOptions) { o.BankRows = 100 }},
	} {
		o := tinyChar()
		o.Modules = []string{"S6"}
		tc.edit(&o)
		if _, err := Table3(o); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("Table3 at rows %d, bank rows %d: err = %v, want one naming %s", o.Rows, o.BankRows, err, tc.flag)
		}
		if _, err := ArtifactClaims(o, fig17, fig18); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("ArtifactClaims at rows %d, bank rows %d: err = %v, want one naming %s", o.Rows, o.BankRows, err, tc.flag)
		}
	}
}
