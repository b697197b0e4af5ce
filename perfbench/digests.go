package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"

	"wivfi/internal/energy"
	"wivfi/internal/expt"
	"wivfi/internal/sim"
	"wivfi/internal/sweep"
)

// expected.json maps op keys to the digests of their simulated
// statistics, recorded with --record-digests on the commit the benchmark
// was defined at. The benchmark compares every op's output against it.
//
//go:embed expected.json
var expectedJSON []byte

// digests holds the expected output digest of every op key.
type digests struct {
	want map[string]string
	// seen, when non-nil, collects every digest checked (--record-digests).
	seen map[string]string
}

func loadDigests() (*digests, error) {
	d := &digests{}
	if err := json.Unmarshal(expectedJSON, &d.want); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return d, nil
}

// check compares an op's output digest with the expected one. Keys the
// table does not hold (noc-des traces of seeds it was not recorded for)
// pass; the workload's own consistency checks still cover them.
func (d *digests) check(res opResult, key, got string) opResult {
	if d.seen != nil {
		d.seen[key] = got
	}
	if want, ok := d.want[key]; ok && got != want {
		res.failure = fmt.Sprintf("output digest %s, want %s", got, want)
		res.mismatch = true
	}
	return res
}

// digest hashes the JSON encoding of v. encoding/json writes floats in
// their shortest exact form, so equal digests mean bit-equal values.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of numbers and strings always encode
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// pipelineDigest covers every system's report, in the pipeline's order.
func pipelineDigest(pl *expt.Pipeline) string {
	return digest([]energy.Report{
		pl.Baseline.Report,
		pl.VFI1Mesh.Report,
		pl.VFI2Mesh.Report,
		pl.WiNoC[sim.MinHop].Report,
		pl.WiNoC[sim.MaxWireless].Report,
	})
}

// recordDigest covers a sweep record's deterministic fields.
func recordDigest(rec sweep.Record) string {
	rec.CacheHit, rec.WallMS = false, 0
	return digest(rec)
}

var workloadNames = []string{"paper-8x8", "scale-12x12", "noc-des"}

func newWorkload(name string, want *digests) (workload, error) {
	switch name {
	case "paper-8x8":
		return &paperWorkload{want: want}, nil
	case "scale-12x12":
		return &scaleWorkload{want: want}, nil
	case "noc-des":
		return &desWorkload{want: want}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// recordDigests runs one rotation of the workload for seed with no
// expected digests, so ops pass on their own consistency checks alone,
// and merges the digests they produced into the JSON file at path.
func recordDigests(name string, seed int64, path string) error {
	d := &digests{seen: map[string]string{}}
	wl, err := newWorkload(name, d)
	if err != nil {
		return err
	}
	if err := wl.setup(seed); err != nil {
		return err
	}
	for i := 0; i < wl.rotation(); i++ {
		if r := wl.op(i, nil); r.mismatch {
			return fmt.Errorf("op %d %s: %s", i, r.label, r.failure)
		}
	}
	merged := map[string]string{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &merged); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	for k, v := range d.seen {
		merged[k] = v
	}
	out, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
