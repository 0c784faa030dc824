package bench

//lint:file-ignore clockdiscipline benchmarks measure wall-clock elapsed time by design

import (
	"fmt"
	"runtime"
	"time"

	"mykil/internal/crypt"
	"mykil/internal/keytree"
	"mykil/internal/node"
	"mykil/internal/wire"
)

// FanoutRow is one worker-count measurement.
type FanoutRow struct {
	Workers int
	// RekeyMs is the time to build one batched-leave key update (real
	// legacy-suite entry encryption) over the tree.
	RekeyMs      float64
	RekeySpeedup float64
	// DataMBs is Iolus-style boundary re-encryption throughput: open the
	// sealed data key, re-seal it under the next area's key, re-encode
	// the packet — the controller's per-packet forwarding job.
	DataMBs     float64
	DataSpeedup float64
}

// FanoutResult reports how the controller's data-plane worker pool scales
// the two CPU-heavy fan-out paths introduced by the node runtime split.
type FanoutResult struct {
	Members    int
	LeaveBatch int
	Payloads   int
	PayloadKB  int
	MaxProcs   int
	Rows       []FanoutRow
	// Verdict summarizes scaling at 4 workers; honest about the host:
	// with one usable CPU the expected speedup is 1.0x.
	Verdict string
}

// rekeyOnce builds a tree of n members wired to pool-backed parallel
// entry encryption and times one batched leave of k spread members.
func rekeyOnce(n, k int, pool *node.Pool) (time.Duration, error) {
	t := keytree.New(keytree.Config{
		Arity:     4,
		Encryptor: keytree.NewSuiteEncryptor(nil),
		KeyGen:    FastKeyGen(7),
		Parallel:  pool.Map,
	})
	if err := t.Preload(memberIDs(n)); err != nil {
		return 0, err
	}
	leavers := t.SpreadMembers(k)
	start := time.Now()
	if _, err := t.BatchLeave(leavers); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// resealRun pushes payloads packets through a pool+pipeline emulation of
// the controller's boundary-forwarding job and returns the elapsed time.
func resealRun(pool *node.Pool, payloads, payloadKB int) (time.Duration, error) {
	fromKey := crypt.NewSymKey()
	toKey := crypt.NewSymKey()
	dataKey := crypt.NewSymKey()
	encKey := crypt.Seal(fromKey, dataKey[:])
	payload := make([]byte, payloadKB<<10)
	for i := range payload {
		payload[i] = byte(i)
	}

	var resealErr error
	emitted := 0
	dp := node.NewPipeline(pool, 0, func(b []byte) {
		if b == nil {
			resealErr = fmt.Errorf("bench: reseal job failed")
			return
		}
		emitted++
	})
	start := time.Now()
	for i := 0; i < payloads; i++ {
		seq := uint64(i)
		dp.Submit(func() []byte {
			raw, err := crypt.Open(fromKey, encKey)
			if err != nil {
				return nil
			}
			kd, err := crypt.SymKeyFromBytes(raw)
			if err != nil {
				return nil
			}
			d := wire.Data{
				Origin:   "m0",
				FromArea: "area-next",
				Seq:      seq,
				Cipher:   wire.CipherAES,
				EncKey:   crypt.Seal(toKey, kd[:]),
				Payload:  payload,
			}
			body, err := wire.PlainBody(d)
			if err != nil {
				return nil
			}
			return body
		})
	}
	dp.Barrier()
	elapsed := time.Since(start)
	dp.Close()
	if resealErr != nil {
		return 0, resealErr
	}
	if emitted != payloads {
		return 0, fmt.Errorf("bench: emitted %d of %d payloads", emitted, payloads)
	}
	return elapsed, nil
}

// CryptoFanout measures rekey-update construction and data re-encryption
// throughput at each worker-pool size. Worker count 1 is the serial
// baseline (a one-worker pool runs Map on the caller).
func CryptoFanout(members, leaveBatch, payloads, payloadKB int, workerCounts []int) (*FanoutResult, error) {
	if members <= 0 {
		members = 2048
	}
	if leaveBatch <= 0 {
		leaveBatch = 48
	}
	if payloads <= 0 {
		payloads = 4096
	}
	if payloadKB <= 0 {
		payloadKB = 1
	}
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 4, 8}
	}
	res := &FanoutResult{
		Members:    members,
		LeaveBatch: leaveBatch,
		Payloads:   payloads,
		PayloadKB:  payloadKB,
		MaxProcs:   runtime.GOMAXPROCS(0),
	}
	mb := float64(payloads*payloadKB) / 1024

	var baseRekey, baseData float64
	for _, w := range workerCounts {
		pool := node.NewPool(w)

		rekey, err := rekeyOnce(members, leaveBatch, pool)
		if err != nil {
			pool.Close()
			return nil, err
		}
		data, err := resealRun(pool, payloads, payloadKB)
		pool.Close()
		if err != nil {
			return nil, err
		}

		row := FanoutRow{
			Workers: w,
			RekeyMs: float64(rekey.Microseconds()) / 1000,
			DataMBs: mb / data.Seconds(),
		}
		if baseRekey == 0 {
			baseRekey, baseData = row.RekeyMs, row.DataMBs
		}
		if row.RekeyMs > 0 {
			row.RekeySpeedup = baseRekey / row.RekeyMs
		}
		if baseData > 0 {
			row.DataSpeedup = row.DataMBs / baseData
		}
		res.Rows = append(res.Rows, row)
	}

	for _, r := range res.Rows {
		if r.Workers != 4 {
			continue
		}
		switch {
		case res.MaxProcs < 2:
			res.Verdict = fmt.Sprintf(
				"single-CPU host (GOMAXPROCS=%d): parallel speedup unavailable; measured %.2fx rekey, %.2fx data at 4 workers",
				res.MaxProcs, r.RekeySpeedup, r.DataSpeedup)
		case r.RekeySpeedup >= 1.5 && r.DataSpeedup >= 1.5:
			res.Verdict = fmt.Sprintf("4 workers: %.2fx rekey, %.2fx data (target >=1.5x met)",
				r.RekeySpeedup, r.DataSpeedup)
		default:
			res.Verdict = fmt.Sprintf("4 workers: %.2fx rekey, %.2fx data (target >=1.5x NOT met)",
				r.RekeySpeedup, r.DataSpeedup)
		}
	}
	return res, nil
}

// Table renders the scaling measurement.
func (r *FanoutResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf(
			"data-plane crypto fan-out (%d members, %d-leave batch, %d x %d KiB packets, GOMAXPROCS=%d)",
			r.Members, r.LeaveBatch, r.Payloads, r.PayloadKB, r.MaxProcs),
		Headers: []string{"workers", "rekey ms", "rekey speedup", "reseal MB/s", "reseal speedup"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.Workers),
			fmt.Sprintf("%.2f", row.RekeyMs),
			fmt.Sprintf("%.2fx", row.RekeySpeedup),
			fmt.Sprintf("%.1f", row.DataMBs),
			fmt.Sprintf("%.2fx", row.DataSpeedup),
		})
	}
	t.Notes = []string{r.Verdict}
	return t
}
