// Command mykil-demo runs a scripted tour of Mykil on the simulated
// network: registration and join, encrypted multicast across an area
// tree, batched rekeying, ticket-based mobility across a partition, and
// primary-backup controller failover — the paper's §III and §IV machinery
// in one narrative run.
//
// Usage: mykil-demo [-areas N] [-members N] [-rsabits N] [-v]
package main

import (
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"mykil/internal/area"
	"mykil/internal/core"
	"mykil/internal/member"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mykil-demo:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		areas   = flag.Int("areas", 3, "number of areas (controllers)")
		nMember = flag.Int("members", 6, "number of members")
		rsaBits = flag.Int("rsabits", 1024, "RSA key size")
		verbose = flag.Bool("v", false, "log protocol internals")
	)
	flag.Parse()

	// Replicas follow their controller's journal, so the tour journals
	// into a throwaway directory.
	jdir, err := os.MkdirTemp("", "mykil-demo-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(jdir)

	opts := []core.Option{
		core.WithAreas(*areas),
		core.WithRSABits(*rsaBits),
		core.WithJournal(jdir, "never"),
		core.WithReplicas(1),
		core.WithPolicy(area.AdmitOnPartition),
		core.WithTIdle(40 * time.Millisecond),
		core.WithTActive(80 * time.Millisecond),
		core.WithHeartbeatEvery(40 * time.Millisecond),
		core.WithOpTimeout(time.Minute),
	}
	if *verbose {
		opts = append(opts, core.WithLogf(func(f string, a ...any) { fmt.Printf("    [log] "+f+"\n", a...) }))
	}

	fmt.Printf("== scene 1: deployment (%d areas, %d members, RSA-%d) ==\n",
		*areas, *nMember, *rsaBits)
	g, err := core.New(opts...)
	if err != nil {
		return err
	}
	defer g.Close()
	if err := g.WarmMemberKeys(*nMember); err != nil {
		return err
	}

	var delivered atomic.Int64
	members := make([]*member.Member, 0, *nMember)
	for i := 0; i < *nMember; i++ {
		id := fmt.Sprintf("member-%d", i)
		m, err := g.AddMember(id, core.MemberConfig{
			AutoRejoin: true,
			OnData:     func([]byte, string) { delivered.Add(1) },
		})
		if err != nil {
			return fmt.Errorf("join %s: %w", id, err)
		}
		members = append(members, m)
		fmt.Printf("  %s joined area of %s\n", id, m.ControllerID())
	}

	fmt.Println("\n== scene 2: encrypted multicast across the area tree ==")
	want := int64(*nMember - 1)
	if err := members[0].Send([]byte("opening credits")); err != nil {
		return err
	}
	if err := waitUntil(10*time.Second, func() bool { return delivered.Load() >= want }); err != nil {
		return fmt.Errorf("multicast: %w (delivered %d of %d)", err, delivered.Load(), want)
	}
	fmt.Printf("  1 multicast reached all %d other members, re-encrypted per area boundary\n", want)

	fmt.Println("\n== scene 3: leave and rekey ==")
	leaver := members[len(members)-1]
	leaverAC := leaver.ControllerID()
	if err := leaver.Leave(); err != nil {
		return err
	}
	fmt.Printf("  %s left; controller %s rotated every key on its tree path\n",
		"member-"+fmt.Sprint(*nMember-1), leaverAC)

	fmt.Println("\n== scene 4: ticket mobility across a partition ==")
	// Use a member homed away from ac-0 so scene 5's failover of ac-0 is
	// untouched by this partition.
	roamer := members[1%len(members)]
	home := roamer.ControllerID()
	// Partition the controller together with its backup so the scene
	// shows ticket mobility rather than a local failover.
	homeBackup := "backup-" + home[len("ac-"):]
	g.Net.SetPartitions([]string{home, homeBackup})
	fmt.Printf("  partitioned %s (and its backup) away; %s lost its alive messages\n",
		home, roamer.ControllerID())
	if err := waitUntil(30*time.Second, func() bool {
		return roamer.Connected() && roamer.ControllerID() != home
	}); err != nil {
		return fmt.Errorf("mobility: %w", err)
	}
	fmt.Printf("  the member re-joined via its ticket at %s (no registration server)\n",
		roamer.ControllerID())
	g.Net.Heal()

	fmt.Println("\n== scene 5: controller failover ==")
	// Pick a controller that still serves someone and is not the roamer's
	// new home... the root (ac-0) always exists; crash it.
	if err := waitUntil(10*time.Second, func() bool {
		return g.Replica(0, 0).AppliedLSN() == g.Controller(0).JournalLSN()
	}); err != nil {
		return fmt.Errorf("replication: %w", err)
	}
	g.Net.Crash(core.ACAddr(0))
	fmt.Println("  crashed ac-0; its backup is watching heartbeats ...")
	if err := waitUntil(30*time.Second, func() bool {
		_, err := g.Replica(0, 0).Promoted()
		return err == nil
	}); err != nil {
		return fmt.Errorf("failover: %w", err)
	}
	fmt.Println("  backup promoted itself from the replicated journal and announced the takeover")

	fmt.Println("\n== epilogue ==")
	fmt.Printf("  network counters: %s\n", g.Net.Stats())
	fmt.Println("  every phase of the paper's §III/§IV machinery ran in one process")
	return nil
}

func waitUntil(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}
