package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"pacram/internal/jsonexact"
	"pacram/internal/memsys"
)

// A job key is the content-addressed identity of one cell: hashing the
// full resolved configuration means sweep points that resolve to the
// same cell (shared baselines above all) collapse onto one job and one
// cache entry. The key is the member name, "@", and the first 8 bytes
// (hex) of the SHA-256 of this JSON object, fields in this order:
//
//	v               always 1
//	mem             the cell's memsys.Config
//	mitigation      mechanism name
//	nrh             RowHammer threshold
//	pacram          {"module","factorIdx"}, omitted without PaCRAM
//	periodic        true, omitted when false
//	periodicFactor  omitted at 0, so cells without it keep their keys
//	insts, warmup   instruction budgets
//	maxCycles       omitted at 0
//	seed            the cell's seed
//	cores           the member's resolved cores
//
// These are exactly the bytes encoding/json writes for the struct the
// key was first defined by, which the differential test and the fuzz
// target in key_test.go pin, so stored cells stay addressable.

// keyEncoder writes job keys for one plan. The memory config dominates
// the encoding and is the same for every cell unless a memory axis is
// swept, so it is encoded once per distinct memsys.Config; cores once
// per member (resolvedMember.coresJSON). Configs that compare equal
// encode identically: the one exception, a float field of +0 in one and
// -0 in the other, cannot arise, because memory patches skip zero
// values and a negative tRFC scale is rejected.
type keyEncoder struct {
	mems map[memsys.Config][]byte
	buf  []byte
}

// key returns the job key of one cell of member m.
func (e *keyEncoder) key(rc *resolvedCell, m resolvedMember) (string, error) {
	b, err := e.encode(rc, m)
	if err != nil {
		return "", fmt.Errorf("scenario: job key for %q: %w", m.name, err)
	}
	sum := sha256.Sum256(b)
	var digest [16]byte
	hex.Encode(digest[:], sum[:8])
	return m.name + "@" + string(digest[:]), nil
}

// encode writes the key's JSON object. The returned slice is reused by
// the next call.
func (e *keyEncoder) encode(rc *resolvedCell, m resolvedMember) ([]byte, error) {
	mem, ok := e.mems[rc.MemCfg]
	if !ok {
		var err error
		if mem, err = json.Marshal(rc.MemCfg); err != nil {
			return nil, err
		}
		if e.mems == nil {
			e.mems = make(map[memsys.Config][]byte)
		}
		e.mems[rc.MemCfg] = mem
	}
	b := append(e.buf[:0], `{"v":1,"mem":`...)
	b = append(b, mem...)
	b = append(b, `,"mitigation":`...)
	b = jsonexact.AppendString(b, rc.Mitigation)
	b = append(b, `,"nrh":`...)
	b = strconv.AppendInt(b, int64(rc.NRH), 10)
	if rc.PacKey != nil {
		b = append(b, `,"pacram":{"module":`...)
		b = jsonexact.AppendString(b, rc.PacKey.Module)
		b = append(b, `,"factorIdx":`...)
		b = strconv.AppendInt(b, int64(rc.PacKey.FactorIdx), 10)
		b = append(b, '}')
	}
	if rc.Periodic {
		b = append(b, `,"periodic":true`...)
	}
	if rc.PeriodicFactor != 0 {
		// encoding/json's shortest float form; NaN and Inf are errors.
		f, err := json.Marshal(rc.PeriodicFactor)
		if err != nil {
			return nil, err
		}
		b = append(b, `,"periodicFactor":`...)
		b = append(b, f...)
	}
	b = append(b, `,"insts":`...)
	b = strconv.AppendUint(b, rc.Insts, 10)
	b = append(b, `,"warmup":`...)
	b = strconv.AppendUint(b, rc.Warmup, 10)
	if rc.MaxCycles != 0 {
		b = append(b, `,"maxCycles":`...)
		b = strconv.AppendUint(b, rc.MaxCycles, 10)
	}
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, rc.Seed, 10)
	b = append(b, `,"cores":`...)
	b = append(b, m.coresJSON...)
	b = append(b, '}')
	e.buf = b
	return b, nil
}
