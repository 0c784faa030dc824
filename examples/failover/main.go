// Failover: the paper's §IV-C fault-tolerance machinery. An area
// controller is replicated primary-backup: the backup follows the
// primary's journal. When the primary crashes, the backup detects missed
// heartbeats, replays the replicated journal into the identical area
// (auxiliary tree, member public keys, parent/child identities),
// announces itself, and service continues. A second act crashes the root
// controller of a three-area tree and shows the orphan controllers
// re-parenting from their preferred lists.
//
// Run with: go run ./examples/failover
package main

import (
	"fmt"
	"os"
	"time"

	"mykil/internal/core"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "failover:", err)
		os.Exit(1)
	}
}

func run() error {
	if err := actOne(); err != nil {
		return err
	}
	return actTwo()
}

// actOne: primary-backup takeover of an area controller.
func actOne() error {
	fmt.Println("== act one: primary-backup controller failover ==")
	// The backup follows the primary's journal, kept here in a throwaway
	// directory.
	jdir, err := os.MkdirTemp("", "mykil-failover-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(jdir)
	g, err := core.New(
		core.WithAreas(1),
		core.WithRSABits(1024),
		core.WithJournal(jdir, "never"),
		core.WithReplicas(1),
		core.WithTIdle(40*time.Millisecond),
		core.WithTActive(80*time.Millisecond),
		core.WithHeartbeatEvery(40*time.Millisecond),
		core.WithOpTimeout(30*time.Second),
	)
	if err != nil {
		return err
	}
	defer g.Close()

	received := make(chan string, 8)
	if _, err := g.AddMember("viewer", core.MemberConfig{
		OnData: func(payload []byte, origin string) {
			received <- fmt.Sprintf("  viewer received %q from %s", payload, origin)
		},
	}); err != nil {
		return err
	}
	sender, err := g.AddMember("sender", core.MemberConfig{})
	if err != nil {
		return err
	}
	fmt.Println("two members joined; the backup is pulling the primary's journal")

	deadline := time.Now().Add(20 * time.Second)
	backup := g.Replica(0, 0)
	for backup.AppliedLSN() != g.Controller(0).JournalLSN() {
		if time.Now().After(deadline) {
			return fmt.Errorf("backup never caught up with the journal")
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("backup holds the whole journal: %d records that replay into the tree, members, parent/child identities\n",
		backup.AppliedLSN()-1)

	if err := sender.Send([]byte("before the crash")); err != nil {
		return err
	}
	fmt.Println(<-received)

	fmt.Println("\ncrashing the primary controller ...")
	g.Net.Crash(core.ACAddr(0))
	for {
		if _, err := backup.Promoted(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("backup never promoted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Println("backup promoted itself after missed heartbeats and announced the takeover")

	for {
		if err := sender.Send([]byte("after the crash")); err == nil {
			select {
			case msg := <-received:
				fmt.Println(msg)
				fmt.Println("service continued without re-registration")
				fmt.Println()
				return nil
			case <-time.After(200 * time.Millisecond):
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no delivery through the backup")
		}
	}
}

// actTwo: orphaned controllers re-parent after the root dies.
func actTwo() error {
	fmt.Println("== act two: area-tree repair after the root controller dies ==")
	g, err := core.New(
		core.WithAreas(3), // ac-0 root; ac-1 and ac-2 its children
		core.WithRSABits(1024),
		core.WithTIdle(40*time.Millisecond),
		core.WithTActive(80*time.Millisecond),
		core.WithOpTimeout(30*time.Second),
	)
	if err != nil {
		return err
	}
	defer g.Close()

	deadline := time.Now().Add(20 * time.Second)
	for g.Controller(1).ParentID() != core.ACID(0) || g.Controller(2).ParentID() != core.ACID(0) {
		if time.Now().After(deadline) {
			return fmt.Errorf("initial area tree never formed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Println("area tree formed: ac-1 and ac-2 are children of root ac-0")

	fmt.Println("crashing the root controller ac-0 ...")
	g.Net.Crash(core.ACAddr(0))
	for {
		p1, p2 := g.Controller(1).ParentID(), g.Controller(2).ParentID()
		if p1 != core.ACID(0) && p2 != core.ACID(0) && (p1 != "" || p2 != "") {
			fmt.Printf("orphans re-parented from their preferred lists: ac-1 -> %q, ac-2 -> %q\n",
				p1, p2)
			fmt.Println("the surviving areas form a connected tree again")
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("orphans never re-parented")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
