package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// The layer walk replays, single-threaded and from the benchmark's own
// files, the dominant operations of a workload through the layers' public
// functions in program order, at the sizes the traced pass observed: key
// size, suite, area size, arity and the mean join/leave batch of a flush.
// Every call is one span (name, start, end, parent, shared trace id); the
// `*_ns` per-layer figures are medians over those spans.

// walkIters is how many times each chain is replayed; every `*_ns` figure
// is a median over at least this many timed calls.
const walkIters = 1000

// spanMetric names the per-layer metric each span name feeds.
var spanMetric = map[string]string{
	"keytree.batch":         "keytree.batch_ns",
	"keytree.apply":         "keytree.apply_ns",
	"crypt.rsa_sign":        "crypt.rsa_sign_ns",
	"crypt.rsa_verify":      "crypt.rsa_verify_ns",
	"crypt.rsa_encrypt":     "crypt.rsa_encrypt_ns",
	"crypt.rsa_decrypt":     "crypt.rsa_decrypt_ns",
	"crypt.seal_key":        "crypt.seal_key_ns",
	"crypt.open_key":        "crypt.open_key_ns",
	"crypt.seal_payload":    "crypt.seal_payload_ns",
	"crypt.open_payload":    "crypt.open_payload_ns",
	"wire.frame_encode":     "wire.frame_encode_ns",
	"wire.frame_decode":     "wire.frame_decode_ns",
	"wire.keyupdate_decode": "wire.keyupdate_decode_ns",
	"wire.data_decode":      "wire.data_decode_ns",
	"ticket.seal":           "ticket.seal_ns",
	"ticket.open":           "ticket.open_ns",
	"journal.append":        "journal.append_ns",
	"journal.replay":        "journal.replay_ns_per_record",
	"simnet.hop":            "simnet.hop_ns",
	"transport.send":        "transport.send_ns",
}

// walker carries one walk's fixtures.
type walker struct {
	tc    *traceCollector
	keys  sutKeys
	suite sutSuite
	tree  *walkTree
	link  *walkLink
	err   error // first failure of a replayed call; the walk reports it
}

// fail keeps the first error; a broken layer call must not vanish into a
// timing loop.
func (w *walker) fail(err error) {
	if err != nil && w.err == nil {
		w.err = err
	}
}

// span times `calls` back-to-back runs of fn as one child of parent.
func (w *walker) span(trace, parent int64, name string, calls int, fn func()) {
	id := w.tc.newSpanID()
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		fn()
	}
	w.tc.record(trace, id, parent, name, t0, time.Now(), calls)
}

// chain runs one replay as a root span over its stages.
func (w *walker) chain(trace int64, name string, stages func(root int64)) {
	root := w.tc.newSpanID()
	t0 := time.Now()
	stages(root)
	w.tc.record(trace, root, 0, name, t0, time.Now(), 1)
}

// hop pushes a frame through transport and network and returns the bytes
// the far endpoint received.
func (w *walker) hop(trace, parent int64, f sutFrame) []byte {
	var raw []byte
	w.span(trace, parent, "transport.send", 1, func() { w.fail(w.link.send(f)) })
	w.span(trace, parent, "simnet.hop", 1, func() {
		b, err := w.link.recv()
		w.fail(err)
		raw = b
	})
	return raw
}

// walkStats is what the replay counted besides time.
type walkStats struct {
	entries, decoded, changed float64 // summed over replayed rekeys and views
	recordsPerFsync           float64
}

// layerWalk runs every chain and returns the `*_ns` figures plus the
// ratios only a replay can count.
func layerWalk(tc *traceCollector, sh walkShape, iters int, tmp string) (map[string]float64, error) {
	suite, err := suiteByName(sh.suite)
	if err != nil {
		return nil, err
	}
	const views = 8
	size := sh.areaSize
	if size < views+2 {
		size = views + 2
	}
	tree, err := newWalkTree(size, views, suite)
	if err != nil {
		return nil, err
	}
	link, err := newWalkLink()
	if err != nil {
		return nil, err
	}
	defer link.Close()
	w := &walker{tc: tc, keys: sh.pool.at(0), suite: suite, tree: tree, link: link}
	var st walkStats

	w.rekeyChains(sh, iters, &st)
	w.handshakeChains(iters)
	w.dataChains(iters)
	if err := w.journalChain(sh, iters, tmp, &st); err != nil {
		return nil, err
	}
	w.capturedFrames()
	if w.err != nil {
		return nil, fmt.Errorf("layer walk: %w", w.err)
	}

	out := map[string]float64{}
	perCall := tc.perCallNs()
	for name, per := range perCall {
		if metric, ok := spanMetric[name]; ok {
			out[metric] = median(per)
		}
	}
	if st.decoded > 0 {
		out["keytree.apply_useful_ratio"] = st.changed / st.decoded
	}
	out["journal.records_per_fsync"] = st.recordsPerFsync
	out["_changed_per_apply"] = st.changed / float64(iters*tree.numViews())
	out["_walk_entries_per_rekey"] = st.entries / float64(iters)
	out["_keyupdate_encode_ns"] = median(perCall["wire.keyupdate_encode"])
	out["_data_encode_ns"] = median(perCall["wire.data_encode"])
	return out, nil
}

// rekeyChains replays a controller flush and one resident's receipt of it.
func (w *walker) rekeyChains(sh walkShape, iters int, st *walkStats) {
	j := int(math.Round(sh.joinsPerRekey))
	l := int(math.Round(sh.leavesPerRekey))
	if j+l == 0 {
		j = 1
	}
	under, fresh := newSymKey(), newSymKey()
	for it := 0; it < iters; it++ {
		trace := int64(1_000_000 + it)
		w.chain(trace, "chain.rekey", func(root int64) {
			var rk walkRekey
			var body, sig, raw, wrapped []byte
			var f sutFrame
			var upd walkUpdate
			w.span(trace, root, "keytree.batch", 1, func() {
				var err error
				rk, err = w.tree.batch(j, l)
				w.fail(err)
			})
			w.span(trace, root, "crypt.seal_key", 16, func() { wrapped = w.suite.SealKey(under, fresh) })
			w.span(trace, root, "wire.keyupdate_encode", 1, func() { body = w.tree.keyUpdateBody(rk) })
			w.span(trace, root, "crypt.rsa_sign", 1, func() { sig = w.keys.Sign(body) })
			frame := keyUpdateFrame("walk-a", body, sig)
			w.span(trace, root, "wire.frame_encode", 8, func() { _ = frame.Encode() })
			raw = w.hop(trace, root, frame)
			w.span(trace, root, "wire.frame_decode", 8, func() {
				var err error
				f, err = decodeFrame(raw)
				w.fail(err)
			})
			if w.err != nil {
				return
			}
			w.span(trace, root, "crypt.rsa_verify", 1, func() { w.fail(w.keys.Verify(f.Body(), f.Sig())) })
			w.span(trace, root, "wire.keyupdate_decode", 1, func() {
				var err error
				upd, err = w.tree.decode(f.Body())
				w.fail(err)
			})
			if w.err != nil {
				return
			}
			w.span(trace, root, "crypt.open_key", 16, func() { w.fail(w.suite.OpenKey(under, wrapped)) })
			w.span(trace, root, "keytree.apply", 1, func() {
				changed, err := w.tree.apply(0, upd)
				w.fail(err)
				st.changed += float64(changed)
			})
			st.entries += float64(rk.entries)
			st.decoded += float64(rk.entries)
			// The other sampled residents follow untimed; they feed the
			// useful-work ratio.
			for v := 1; v < w.tree.numViews(); v++ {
				changed, err := w.tree.apply(v, upd)
				w.fail(err)
				st.changed += float64(changed)
				st.decoded += float64(rk.entries)
			}
		})
		// Undo the batch's population change, untimed, so every replay
		// sees the same area size.
		rk, err := w.tree.batch(l, j)
		w.fail(err)
		if w.err != nil {
			return
		}
		upd, err := w.tree.decode(w.tree.keyUpdateBody(rk))
		w.fail(err)
		for v := 0; v < w.tree.numViews(); v++ {
			_, err := w.tree.apply(v, upd)
			w.fail(err)
		}
	}
}

// handshakeChains replays the RSA-sealed exchange and ticket handling of a
// join (step 6 in, ticket out) and of a ticket rejoin (ticket in, signed
// welcome out).
func (w *walker) handshakeChains(iters int) {
	kShared := newSymKey()
	pubDER := w.keys.PublicDER()
	now := time.Now()
	var tk []byte
	for it := 0; it < iters; it++ {
		trace := int64(2_000_000 + it)
		id := fmt.Sprintf("walk-%d", it)
		w.chain(trace, "chain.join", func(root int64) {
			var blob []byte
			w.span(trace, root, "crypt.rsa_encrypt", 1, func() {
				var err error
				blob, err = w.keys.sealJoinToAC(id)
				w.fail(err)
			})
			w.span(trace, root, "crypt.rsa_decrypt", 1, func() { w.fail(w.keys.openJoinToAC(blob)) })
			w.span(trace, root, "ticket.seal", 4, func() {
				var err error
				tk, err = sealTicket(kShared, id, pubDER, now)
				w.fail(err)
			})
		})
		trace = int64(3_000_000 + it)
		w.chain(trace, "chain.rejoin", func(root int64) {
			w.span(trace, root, "ticket.open", 4, func() { w.fail(openTicket(kShared, tk, now)) })
			var sig []byte
			w.span(trace, root, "crypt.rsa_sign", 1, func() { sig = w.keys.Sign(tk) })
			w.span(trace, root, "crypt.rsa_verify", 1, func() { w.fail(w.keys.Verify(tk, sig)) })
		})
		if w.err != nil {
			return
		}
	}
}

// dataChains replays one 1 KiB packet from Member.Send to a receiver's
// decrypted payload.
func (w *walker) dataChains(iters int) {
	areaKey := newSymKey()
	payload := make([]byte, 1024)
	for it := 0; it < iters; it++ {
		trace := int64(4_000_000 + it)
		w.chain(trace, "chain.data", func(root int64) {
			dataKey := newSymKey()
			var sealed, encKey, raw []byte
			var frame, f sutFrame
			w.span(trace, root, "crypt.seal_payload", 1, func() { sealed = sealPayload(dataKey, payload) })
			w.span(trace, root, "crypt.seal_key", 16, func() { encKey = w.suite.SealKey(areaKey, dataKey) })
			w.span(trace, root, "wire.data_encode", 1, func() { frame = dataFrame("walk-a", "area-walk", uint64(it+1), encKey, sealed) })
			raw = w.hop(trace, root, frame)
			w.span(trace, root, "wire.frame_decode", 8, func() {
				var err error
				f, err = decodeFrame(raw)
				w.fail(err)
			})
			if w.err != nil {
				return
			}
			w.span(trace, root, "wire.data_decode", 8, func() { w.fail(decodeDataBody(f.Body())) })
			w.span(trace, root, "crypt.open_key", 16, func() { w.fail(w.suite.OpenKey(areaKey, encKey)) })
			w.span(trace, root, "crypt.open_payload", 1, func() {
				_, err := openPayload(dataKey, sealed)
				w.fail(err)
			})
		})
		if w.err != nil {
			return
		}
	}
}

// journalChain appends records of the run's sizes with the run's single
// writer, then replays a copy of the run's journal directory (or, for an
// unjournaled workload, the directory just written).
func (w *walker) journalChain(sh walkShape, iters int, tmp string, st *walkStats) error {
	fsync := sh.fsync
	if fsync == "" {
		fsync = "group"
	}
	sizes := []int{320}
	if sh.journalDir != "" {
		js, err := readJournalDir(sh.journalDir)
		if err != nil {
			return err
		}
		if len(js.sizes) > 0 {
			sizes = js.sizes
		}
	}
	dir := filepath.Join(tmp, "walk-journal")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	j, _, err := openJournal(dir, fsync)
	if err != nil {
		return err
	}
	for it := 0; it < iters; it++ {
		trace := int64(5_000_000 + it)
		rec := make([]byte, sizes[it%len(sizes)])
		w.chain(trace, "chain.journal", func(root int64) {
			w.span(trace, root, "journal.append", 1, func() { w.fail(j.Append(rec)) })
		})
	}
	st.recordsPerFsync = j.recordsPerFsync()
	if err := j.Close(); err != nil {
		return err
	}

	replayDir := dir
	if sh.journalDir != "" {
		replayDir = filepath.Join(tmp, "walk-replay")
		if err := copyDir(sh.journalDir, replayDir); err != nil {
			return err
		}
	}
	id := w.tc.newSpanID()
	t0 := time.Now()
	rj, n, err := openJournal(replayDir, fsync)
	t1 := time.Now()
	if err != nil {
		return err
	}
	if n > 0 {
		w.tc.record(6_000_000, id, 0, "journal.replay", t0, t1, n)
	}
	return rj.Close()
}

// capturedFrames decodes the real frames the traced pass sampled, so the
// decode figures rest on the run's own key updates and data packets.
func (w *walker) capturedFrames() {
	trace := int64(7_000_000)
	for _, kind := range []string{kindKeyUpdate, kindData} {
		for _, raw := range w.tc.samples[kind] {
			trace++
			w.chain(trace, "chain.captured", func(root int64) {
				var f sutFrame
				w.span(trace, root, "wire.frame_decode", 8, func() {
					var err error
					f, err = decodeFrame(raw)
					w.fail(err)
				})
				if w.err != nil {
					return
				}
				if kind == kindKeyUpdate {
					w.span(trace, root, "wire.keyupdate_decode", 4, func() {
						_, err := decodeKeyUpdateBody(f.Body())
						w.fail(err)
					})
				} else {
					w.span(trace, root, "wire.data_decode", 8, func() { w.fail(decodeDataBody(f.Body())) })
				}
			})
		}
	}
}

func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// traceLayers turns the traced pass's counts and the walk's per-call times
// into the remaining per-layer figures: the collector's counts, the
// protocol step waits, and each layer's share of the pass's CPU seconds.
func traceLayers(tc *traceCollector, r *runResult, walk map[string]float64) {
	L, ops := r.layer, float64(r.ops)
	for k, v := range walk {
		if k[0] != '_' {
			L[k] = v
		}
	}
	for _, role := range []string{"rs", "ac", "member", "replica"} {
		L["transport.sends."+role] = float64(tc.sendsByRole[role])
	}
	L["obs.trace_events"] = float64(tc.events)
	L["crypt.rsa_verifies_per_op"] = float64(tc.signedSends) / ops
	for step := 1; step <= 7; step++ {
		L[fmt.Sprintf("member.join_step_ms.%d", step)] = tc.stepMeanMs("join", step)
	}
	for step := 1; step <= 6; step++ {
		L[fmt.Sprintf("member.rejoin_step_ms.%d", step)] = tc.stepMeanMs("rejoin", step)
	}
	var entries, frames float64
	for _, raw := range tc.samples[kindKeyUpdate] {
		if f, err := decodeFrame(raw); err == nil {
			if n, err := decodeKeyUpdateBody(f.Body()); err == nil {
				entries += float64(n)
				frames++
			}
		}
	}
	if frames > 0 {
		L["wire.keyupdate_entries_per_frame"] = entries / frames
	}

	// CPU shares: per-call self time × the pass's call count ÷ the pass's
	// CPU seconds. Call counts come from the decorator (frames by kind and
	// role, signatures, sealed bodies) and the controllers' own counters.
	sends := func(key string) float64 { return float64(tc.sendsByKind[key]) }
	var total float64
	for _, n := range tc.sendsByRole {
		total += float64(n)
	}
	kuDeliveries := sends("/" + kindKeyUpdate)
	dataSent := sends("member/" + kindData)
	dataRelayed := sends("ac/" + kindData)
	rekeys, rekeyEntries := L["area.rekeys"], L["area.rekey_entries"]
	changed := walk["_changed_per_apply"]

	crypt := L["crypt.rsa_sign_ns"]*float64(tc.signs) +
		L["crypt.rsa_verify_ns"]*float64(tc.signedSends) +
		(L["crypt.rsa_encrypt_ns"]+L["crypt.rsa_decrypt_ns"])*float64(tc.sealedSends) +
		L["crypt.seal_key_ns"]*(rekeyEntries+dataSent+L["area.data_relayed"]+L["area.data_forwarded"]) +
		L["crypt.open_key_ns"]*(changed*kuDeliveries+dataRelayed+L["area.data_relayed"]) +
		L["crypt.seal_payload_ns"]*dataSent +
		L["crypt.open_payload_ns"]*dataRelayed
	wire := (L["wire.frame_encode_ns"]+L["wire.frame_decode_ns"])*total +
		walk["_keyupdate_encode_ns"]*rekeys + L["wire.keyupdate_decode_ns"]*kuDeliveries +
		walk["_data_encode_ns"]*(dataSent+L["area.data_relayed"]+L["area.data_forwarded"]) +
		L["wire.data_decode_ns"]*(dataSent+dataRelayed)
	batchSelf := L["keytree.batch_ns"] - walk["_walk_entries_per_rekey"]*L["crypt.seal_key_ns"]
	applySelf := L["keytree.apply_ns"] - changed*L["crypt.open_key_ns"]
	keytree := math.Max(batchSelf, 0)*rekeys + math.Max(applySelf, 0)*kuDeliveries

	cpuNs := r.cpuS * 1e9
	L["crypt.cpu_share"] = crypt / cpuNs
	L["wire.cpu_share"] = wire / cpuNs
	L["keytree.cpu_share"] = keytree / cpuNs
	L["unattributed.cpu_share"] = math.Max(0, 1-(crypt+wire+keytree)/cpuNs)
}
