package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Text file format: one record per line, Ramulator-style —
//
//	<bubbles> <hex-or-dec address> [R|W]
//
// The access kind defaults to R when omitted. Lines starting with '#'
// and blank lines are skipped. This lets users replay real SimPoint
// traces instead of the synthetic catalog. A compact binary format
// lives beside it (see binary.go); ReadRecords auto-detects which one
// it was handed.

// WriteRecords serializes records to w in the file format.
func WriteRecords(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		kind := "R"
		if r.Write {
			kind = "W"
		}
		if _, err := fmt.Fprintf(bw, "%d 0x%x %s\n", r.Bubbles, r.Addr, kind); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxLineBytes bounds one text-trace line. No legitimate record comes
// close; a line this long means a corrupt or misidentified file, and
// the reader says which line rather than scanning gigabytes for a
// newline that never comes.
const maxLineBytes = 1 << 20

// errLineTooLong is the internal overlong-line signal; ReadRecords
// turns it into a positioned error.
var errLineTooLong = errors.New("line too long")

// ReadRecords parses a trace in either format: binary traces are
// recognized by their magic, anything else is read as text.
func ReadRecords(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	if head, err := br.Peek(len(binaryMagic)); err == nil && [4]byte(head) == binaryMagic {
		return DecodeBinary(br)
	}
	return readTextRecords(br)
}

// readTextRecords parses the text format line by line. Unlike a
// bufio.Scanner, which gives up on an overlong line with an unlocated
// "token too long", this names the offending line.
func readTextRecords(br *bufio.Reader) ([]Record, error) {
	var recs []Record
	lineNo := 0
	for {
		raw, err := readLine(br)
		atEOF := err == io.EOF
		if err != nil && !atEOF {
			if errors.Is(err, errLineTooLong) {
				return nil, fmt.Errorf("trace: line %d: line exceeds %d bytes (corrupt file, or a binary trace missing its magic?)",
					lineNo+1, maxLineBytes)
			}
			return nil, err
		}
		if atEOF && raw == "" {
			break
		}
		lineNo++
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			if atEOF {
				break
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("trace: line %d: want '<bubbles> <addr> [R|W]', got %q", lineNo, line)
		}
		bubbles, err := strconv.Atoi(fields[0])
		if err != nil || bubbles < 0 {
			return nil, fmt.Errorf("trace: line %d: bad bubble count %q", lineNo, fields[0])
		}
		raw2 := strings.TrimPrefix(strings.TrimPrefix(fields[1], "0x"), "0X")
		addr, err := strconv.ParseUint(raw2, hexBase(fields[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad address %q", lineNo, fields[1])
		}
		rec := Record{Bubbles: bubbles, Addr: addr &^ (lineBytes - 1)}
		if len(fields) == 3 {
			switch strings.ToUpper(fields[2]) {
			case "R":
			case "W":
				rec.Write = true
			default:
				return nil, fmt.Errorf("trace: line %d: bad access kind %q", lineNo, fields[2])
			}
		}
		recs = append(recs, rec)
		if atEOF {
			break
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	return recs, nil
}

// readLine reads one newline-terminated line (the newline stripped by
// the caller's TrimSpace), failing with errLineTooLong once a line
// outgrows maxLineBytes instead of buffering it whole.
func readLine(br *bufio.Reader) (string, error) {
	var buf []byte
	for {
		frag, err := br.ReadSlice('\n')
		buf = append(buf, frag...)
		if len(buf) > maxLineBytes {
			return "", errLineTooLong
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		return string(buf), err
	}
}

// ReadFile reads and parses a trace file in either format.
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	recs, err := ReadRecords(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

func hexBase(s string) int {
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return 16
	}
	return 10
}

// LineBytes is the trace address granularity (one cache line).
const LineBytes = lineBytes

// replay is a Generator that loops over a fixed record slice (traces
// are replayed cyclically, as Ramulator does when the instruction
// budget exceeds the trace length).
type replay struct {
	name string
	recs []Record
	pos  int
}

// NewReplay wraps parsed records as a Generator.
func NewReplay(name string, recs []Record) (Generator, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("trace: replay %q: no records", name)
	}
	return &replay{name: name, recs: recs}, nil
}

func (g *replay) Name() string { return g.name }

func (g *replay) Next() Record {
	r := g.recs[g.pos]
	g.pos++
	if g.pos == len(g.recs) {
		g.pos = 0
	}
	return r
}

// Capture materializes n records of any generator (useful for saving a
// synthetic workload as a file).
func Capture(g Generator, n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
