package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestRecordsRoundTrip(t *testing.T) {
	spec, _ := SpecByName("429.mcf")
	g, err := New(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	recs := Capture(g, 500)
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip changed length: %d -> %d", len(recs), len(back))
	}
	for i := range recs {
		if recs[i] != back[i] {
			t.Fatalf("record %d changed: %+v -> %+v", i, recs[i], back[i])
		}
	}
}

func TestReadRecordsFormats(t *testing.T) {
	in := `# a comment
10 0x1000 R

5 4096 W
0 0xffff
`
	recs, err := ReadRecords(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("parsed %d records, want 3", len(recs))
	}
	if recs[0].Bubbles != 10 || recs[0].Addr != 0x1000 || recs[0].Write {
		t.Fatalf("record 0 wrong: %+v", recs[0])
	}
	if !recs[1].Write || recs[1].Addr != 4096 {
		t.Fatalf("record 1 wrong: %+v", recs[1])
	}
	// Addresses are line-aligned on read.
	if recs[2].Addr%lineBytes != 0 {
		t.Fatalf("record 2 not aligned: %+v", recs[2])
	}
}

func TestReadRecordsErrors(t *testing.T) {
	for _, in := range []string{
		"",                     // empty
		"x 0x10 R\n",           // bad bubbles
		"-1 0x10 R\n",          // negative bubbles
		"1 zz R\n",             // bad address
		"1 0x10 Q\n",           // bad kind
		"1\n",                  // too few fields
		"1 0x10 R extra one\n", // too many fields
	} {
		if _, err := ReadRecords(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q accepted", in)
		}
	}
}

func TestReadRecordsOverlongLine(t *testing.T) {
	// Regression: the scanner-based reader gave up on lines over its 1MB
	// buffer with an unlocated "token too long". The reader must instead
	// name the offending line.
	in := "1 0x40 R\n2 0x80 W\n# " + strings.Repeat("x", maxLineBytes+16) + "\n"
	_, err := ReadRecords(strings.NewReader(in))
	if err == nil {
		t.Fatal("overlong line accepted")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error does not name line 3: %v", err)
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("error does not describe the limit: %v", err)
	}
}

func TestReadRecordsNoFinalNewline(t *testing.T) {
	recs, err := ReadRecords(strings.NewReader("1 0x40 R\n2 0x80 W"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Addr != 0x80 || !recs[1].Write {
		t.Fatalf("parsed %+v", recs)
	}
}

func TestReplayLoops(t *testing.T) {
	recs := []Record{
		{Bubbles: 1, Addr: 64},
		{Bubbles: 2, Addr: 128, Write: true},
	}
	g, err := NewReplay("t", recs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		want := recs[i%2]
		if got := g.Next(); got != want {
			t.Fatalf("replay %d: %+v != %+v", i, got, want)
		}
	}
	if g.Name() != "t" {
		t.Fatal("name lost")
	}
}

func TestNewReplayEmpty(t *testing.T) {
	if _, err := NewReplay("x", nil); err == nil {
		t.Fatal("empty replay accepted")
	}
}
