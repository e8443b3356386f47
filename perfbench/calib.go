package main

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on is shared: other tenants' load slows
// the program down by a third and more for minutes at a time, in CPU
// time as much as in wall time, so one run's raw times say as much
// about the neighbours as about the program. A run therefore also
// times a fixed amount of reference work that belongs to the benchmark,
// not the program, between its measured phases and on as many
// goroutines as they use. The gated times are the run's median raw
// time scaled by how much slower its median calibration ran than on
// the reference host: what the phase would have taken there. A change
// to the program moves them in full; a change of host load moves both
// sides and largely cancels. The raw times and the slowdown are
// reported beside them.

// Reference-host calibration times: what one pass took on an idle
// 2-vCPU Xeon VM with two workers. They only fix the scale the gated
// figures are reported in.
const (
	calRefWall = 60 * time.Millisecond
	calRefCPU  = 120 * time.Millisecond
)

const (
	calChunks     = 32      // chunks of reference work per pass
	calPasses     = 5       // passes per calibration; the median is kept
	calWalkSteps  = 1 << 18 // table steps per walk chunk
	calTableWords = 1 << 20 // 4 MiB walk table per worker, twice L2
)

// calMasks are the working sets the walk chunks cycle through, from L1
// to past L2.
var calMasks = []uint64{1<<12 - 1, 1<<16 - 1, 1<<18 - 1, calTableWords - 1}

// calibrator holds the walk tables, allocated once, and every
// calibration a run made.
type calibrator struct {
	workers int
	tables  [][]uint32
	sink    atomic.Uint64
	walls   []float64
	cpus    []float64
}

func newCalibrator(workers int) *calibrator {
	c := &calibrator{workers: max(workers, 1)}
	for range c.workers {
		t := make([]uint32, calTableWords)
		for i := range t {
			t[i] = uint32(i) * 2654435761
		}
		c.tables = append(c.tables, t)
	}
	return c
}

// calibrate runs calPasses passes of the reference work and logs the
// median pass's wall and CPU time. A nil calibrator does nothing.
func (c *calibrator) calibrate() {
	if c == nil {
		return
	}
	var walls, cpus []float64
	for range calPasses {
		cpu0 := cpuTime()
		start := time.Now()
		c.pass()
		walls = append(walls, time.Since(start).Seconds())
		cpus = append(cpus, (cpuTime() - cpu0).Seconds())
	}
	c.walls = append(c.walls, quantile(walls, 0.5))
	c.cpus = append(c.cpus, quantile(cpus, 0.5))
}

// pass runs calChunks chunks on the calibrator's workers, which pull
// them from a shared counter the way the runner's pool pulls cells.
// Chunks alternate between table walks over each working set and
// standard-library work (JSON, compression and hashing, sorting with
// maps, formatting with regexp matching): between them they exercise
// the caches, the branch predictors, a wide code footprint and the
// allocator, as the program does.
func (c *calibrator) pass() {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range c.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= calChunks {
					return
				}
				seed := uint64(i)*0x9e3779b97f4a7c15 | 1
				if k := i % 8; k < 4 {
					c.sink.Add(walkChunk(c.tables[w], seed, calMasks[k]))
				} else {
					c.sink.Add(libChunk(k-4, seed))
				}
			}
		}()
	}
	wg.Wait()
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	return x ^ x<<17
}

// walkChunk is a pseudo-random walk over one working set of the table
// with data-dependent branches and writes, plus map updates that
// allocate. Its amount of work does not depend on its inputs.
func walkChunk(tab []uint32, x, mask uint64) uint64 {
	var acc uint64
	m := make(map[uint32]uint32)
	for i := 0; i < calWalkSteps; i++ {
		x = xorshift(x)
		j := x & mask
		v := tab[j]
		if v&1 == 0 {
			tab[j] = v*3 + 1
		} else {
			tab[j] = v >> 1
		}
		acc += uint64(v)
		if i&15 == 0 {
			m[uint32(x>>40)&4095]++
		}
	}
	return acc + uint64(len(m))
}

type calRecord struct {
	Name  string            `json:"name"`
	N     int               `json:"n"`
	Vals  []float64         `json:"vals"`
	Tags  map[string]uint32 `json:"tags"`
	Inner *calRecord        `json:"inner,omitempty"`
	On    bool              `json:"on"`
}

var calRe = regexp.MustCompile(`(\w+)-(\d{2,4})x?[aeiou]+`)

// libChunk is one kind of standard-library work of a fixed size.
func libChunk(kind int, x uint64) uint64 {
	var acc uint64
	switch kind {
	case 0: // JSON round trips of nested records
		recs := make([]calRecord, 60)
		for k := range recs {
			recs[k] = calRecord{Name: "cell" + strconv.Itoa(k), N: k * 7, Vals: []float64{float64(k) / 3, 1.5, float64(x % 97)},
				Tags: map[string]uint32{"x": uint32(k), "y": uint32(x)}, Inner: &calRecord{Name: "inner", N: k}, On: k%2 == 0}
		}
		for range 6 {
			b, _ := json.Marshal(recs)
			var back []calRecord
			_ = json.Unmarshal(b, &back)
			acc += uint64(len(b) + len(back))
		}
	case 1: // compression and hashing of generated text
		var src bytes.Buffer
		for src.Len() < 48<<10 {
			x = xorshift(x)
			fmt.Fprintf(&src, "w%d-%d ", x%97, x%13)
		}
		var dst bytes.Buffer
		w, _ := flate.NewWriter(&dst, 5)
		w.Write(src.Bytes())
		w.Close()
		h := sha256.Sum256(src.Bytes())
		acc += uint64(dst.Len()) + uint64(h[0])
	case 2: // sorting records by string then number, counting in a map
		type item struct {
			k uint64
			s string
		}
		items := make([]item, 6000)
		m := make(map[uint64]int)
		for k := range items {
			x = xorshift(x)
			items[k] = item{x % 100000, strconv.FormatUint(x%1000, 16)}
			m[x%4096]++
		}
		sort.Slice(items, func(a, b int) bool {
			if items[a].s != items[b].s {
				return items[a].s < items[b].s
			}
			return items[a].k < items[b].k
		})
		acc += items[0].k + uint64(len(m))
	default: // formatting and regexp matching
		var sb bytes.Buffer
		for k := range 1500 {
			fmt.Fprintf(&sb, "tok%d-%dxae %s ", k, uint64(k)*x%9000, strconv.FormatFloat(float64(k)/7, 'g', 6, 64))
		}
		acc += uint64(len(calRe.FindAllStringIndex(sb.String(), -1)))
	}
	return acc
}

// wallScale and cpuScale turn a run's measured wall and CPU times into
// the reference host's: the reference calibration time over the run's
// median one. Without calibrations they are 1.
func (c *calibrator) wallScale() float64 {
	if c == nil || len(c.walls) == 0 {
		return 1
	}
	return calRefWall.Seconds() / quantile(c.walls, 0.5)
}

func (c *calibrator) cpuScale() float64 {
	if c == nil || len(c.cpus) == 0 {
		return 1
	}
	return calRefCPU.Seconds() / quantile(c.cpus, 0.5)
}
