package bench

//lint:file-ignore clockdiscipline benchmarks measure wall-clock elapsed time by design

import (
	"fmt"
	"os"
	"time"

	"mykil/internal/core"
	"mykil/internal/journal"
	"mykil/internal/simnet"
)

// JournalThroughputRow reports append throughput under one fsync policy.
type JournalThroughputRow struct {
	Policy  journal.FsyncPolicy
	Records int
	Bytes   int64
	Elapsed time.Duration
	Syncs   int64
}

// RecsPerSec is the append rate.
func (r JournalThroughputRow) RecsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Records) / r.Elapsed.Seconds()
}

// JournalThroughput appends records of payloadBytes under each fsync
// policy and measures the rate — the E13 cost axis of choosing
// durability strictness.
func JournalThroughput(records, payloadBytes int) ([]JournalThroughputRow, error) {
	if records == 0 {
		records = 20_000
	}
	if payloadBytes == 0 {
		payloadBytes = 256
	}
	payload := make([]byte, payloadBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	var rows []JournalThroughputRow
	for _, policy := range []journal.FsyncPolicy{journal.FsyncAlways, journal.FsyncInterval, journal.FsyncNever} {
		dir, err := os.MkdirTemp("", "mykil-journal-bench-*")
		if err != nil {
			return nil, err
		}
		j, _, err := journal.Open(journal.Options{Dir: dir, Fsync: policy})
		if err != nil {
			_ = os.RemoveAll(dir)
			return nil, err
		}
		start := time.Now()
		for i := 0; i < records; i++ {
			if _, err := j.Append(payload); err != nil {
				_ = j.Close()
				_ = os.RemoveAll(dir)
				return nil, err
			}
		}
		elapsed := time.Since(start)
		rows = append(rows, JournalThroughputRow{
			Policy:  policy,
			Records: records,
			Bytes:   int64(records) * int64(payloadBytes),
			Elapsed: elapsed,
			Syncs:   j.Syncs(),
		})
		_ = j.Close()
		_ = os.RemoveAll(dir)
	}
	return rows, nil
}

// JournalThroughputTable renders the fsync-policy comparison.
func JournalThroughputTable(rows []JournalThroughputRow, payloadBytes int) *Table {
	if payloadBytes == 0 {
		payloadBytes = 256
	}
	t := &Table{
		Title:   fmt.Sprintf("E13 journal append throughput (%d-byte records)", payloadBytes),
		Headers: []string{"fsync policy", "records", "elapsed", "records/s", "MB/s", "syncs"},
		Notes: []string{
			"always = one fsync per record; interval amortizes; never leans on the OS cache",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Policy.String(),
			fmt.Sprint(r.Records),
			r.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", r.RecsPerSec()),
			fmt.Sprintf("%.1f", float64(r.Bytes)/1e6/r.Elapsed.Seconds()),
			fmt.Sprint(r.Syncs),
		})
	}
	return t
}

// FsyncOrderingHolds checks the expected cost ordering: relaxing the
// sync discipline never slows appends down.
func FsyncOrderingHolds(rows []JournalThroughputRow) bool {
	if len(rows) != 3 {
		return false
	}
	always, interval, never := rows[0].RecsPerSec(), rows[1].RecsPerSec(), rows[2].RecsPerSec()
	return always > 0 && always <= interval && interval <= never*1.5
}

// RecoveryVsRejoinResult compares the two ways an area comes back after
// its controller dies: restart-from-journal (§IV-C with a durable log)
// versus every member re-admitting itself through the ticket rejoin
// protocol (§IV-B, the fallback when nothing was persisted).
type RecoveryVsRejoinResult struct {
	Members       int
	RecoveryTime  time.Duration // journal restart, whole area at once
	RecoveryMsgs  int64         // frames on the wire during recovery
	RejoinTime    time.Duration // mean per-member ticket rejoin
	RejoinMsgs    int64         // frames per rejoin
	RejoinSampled int
}

// RecoveryVsRejoin measures a journal-backed controller restart of an
// area with the given member count, then measures actual ticket rejoins
// to price the alternative.
func RecoveryVsRejoin(members, rsaBits int) (*RecoveryVsRejoinResult, error) {
	if members == 0 {
		members = 20
	}
	if rsaBits == 0 {
		rsaBits = 1024
	}
	dir, err := os.MkdirTemp("", "mykil-recovery-bench-*")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()

	net := simnet.New(simnet.Config{})
	g, err := core.New(
		core.WithAreas(2),
		core.WithRSABits(rsaBits),
		core.WithNet(net),
		core.WithTIdle(time.Hour), // quiet: no alive traffic in the counters
		core.WithTActive(time.Hour),
		core.WithRekeyInterval(time.Hour),
		core.WithOpTimeout(2*time.Minute),
		core.WithJournal(dir, "always"),
	)
	if err != nil {
		net.Close()
		return nil, err
	}
	defer func() {
		g.Close()
		net.Close()
	}()
	if err := g.WarmMemberKeys(members); err != nil {
		return nil, err
	}
	ids := make([]string, members)
	for i := range ids {
		ids[i] = fmt.Sprintf("jm%d", i)
		if _, err := g.AddMember(ids[i], core.MemberConfig{}); err != nil {
			return nil, err
		}
	}

	res := &RecoveryVsRejoinResult{Members: members}

	// Path 1: kill controller 0 and restart it from its journal.
	m0 := net.Stats().Value(simnet.StatSentMsgs)
	start := time.Now()
	if err := g.RestartController(0); err != nil {
		return nil, err
	}
	res.RecoveryTime = time.Since(start)
	res.RecoveryMsgs = net.Stats().Value(simnet.StatSentMsgs) - m0

	// Path 2: price the ticket rejoin a journal-less deployment would
	// need per member, by moving a sample of members to the other area.
	res.RejoinSampled = min(members, 5)
	var rejoinTotal time.Duration
	var rejoinMsgs int64
	for i := 0; i < res.RejoinSampled; i++ {
		m := g.Member(ids[i])
		home := m.ControllerID()
		var target string
		for _, e := range g.Directory() {
			if e.ID != home {
				target = e.ID
				break
			}
		}
		if err := m.Leave(); err != nil {
			return nil, err
		}
		f0 := net.Stats().Value(simnet.StatSentMsgs)
		start := time.Now()
		if err := m.Rejoin(target); err != nil {
			return nil, err
		}
		rejoinTotal += time.Since(start)
		rejoinMsgs += net.Stats().Value(simnet.StatSentMsgs) - f0
	}
	res.RejoinTime = rejoinTotal / time.Duration(res.RejoinSampled)
	res.RejoinMsgs = rejoinMsgs / int64(res.RejoinSampled)
	return res, nil
}

// Table renders the recovery-vs-rejoin comparison.
func (r *RecoveryVsRejoinResult) Table() *Table {
	wholeArea := r.RejoinTime * time.Duration(r.Members)
	return &Table{
		Title:   fmt.Sprintf("E13 crash recovery vs member rejoin (%d members)", r.Members),
		Headers: []string{"path", "time", "frames on the wire"},
		Rows: [][]string{
			{"journal restart (whole area)", r.RecoveryTime.Round(time.Microsecond).String(), fmt.Sprint(r.RecoveryMsgs)},
			{"ticket rejoin (per member)", r.RejoinTime.Round(time.Microsecond).String(), fmt.Sprint(r.RejoinMsgs)},
			{fmt.Sprintf("ticket rejoin × %d members", r.Members), wholeArea.Round(time.Microsecond).String(), fmt.Sprint(r.RejoinMsgs * int64(r.Members))},
		},
		Notes: []string{
			"journal restart replays local disk state: no protocol rounds, no RS or member involvement",
			fmt.Sprintf("rejoin mean over %d sampled members", r.RejoinSampled),
		},
	}
}

// RecoveryBeatsRejoin checks the E13 claim: restarting from the journal
// costs less total time and network traffic than every member rejoining.
func (r *RecoveryVsRejoinResult) RecoveryBeatsRejoin() bool {
	return r.RecoveryTime < r.RejoinTime*time.Duration(r.Members) &&
		r.RecoveryMsgs < r.RejoinMsgs*int64(r.Members)
}
