package area

import (
	"mykil/internal/crypt"
	"mykil/internal/wire"
)

// This file is the controller's data plane: CPU-heavy crypto and
// encoding (Iolus-style data re-encryption, per-member RSA sealing,
// keytree entry encryption) runs on a bounded worker pool, while the
// control plane — the event loop — keeps sole ownership of protocol
// state. The loop snapshots whatever key material and destination
// addresses a job needs, submits the job, and the pipeline's drain
// goroutine performs the sends in submission order, so per-destination
// wire ordering is exactly what a serial controller would produce.

// dataOut is one relayed packet's sends: frame to every address in dests
// except the one it came from, and — for an own-area packet under a
// parent — the re-sealed copy up to the parent. Its size does not depend
// on the area's: dests is the controller's shared membership snapshot.
type dataOut struct {
	frame  *wire.Frame
	dests  []string // read-only, shared with other jobs
	except string
	up     *wire.Frame
	upAddr string
}

// deliver sends one job's frames. Runs on the pipeline drain goroutine;
// it may only touch the transport, stats, and Logf — all concurrency-safe.
func (c *Controller) deliver(o dataOut) {
	if o.frame != nil {
		for _, addr := range o.dests {
			if addr != o.except {
				c.send(addr, o.frame)
			}
		}
	}
	if o.up != nil {
		c.send(o.upAddr, o.up)
	}
}

// submitData schedules one data-plane job (loop context). Its sends
// happen after every earlier job's and before every later one's.
func (c *Controller) submitData(job func() dataOut) {
	c.dp.Submit(job)
}

// dataBarrier blocks the loop until every in-flight data-plane job has
// been sent (loop context). Called before a rekey is applied so data
// sealed under the outgoing area key cannot overtake the key update on
// the wire — members would otherwise receive undecipherable packets.
func (c *Controller) dataBarrier() {
	c.dp.Barrier()
}

// treeParallel adapts the worker pool to keytree.Config.Parallel, fanning
// per-entry key encryption of large rekey updates across cores.
func (c *Controller) treeParallel(n int, task func(i int)) {
	c.pool.Map(n, task)
}

// sealJob is one sealed unicast to produce: welcome, path update, or any
// other per-member RSA-sealed body.
type sealJob struct {
	addr string
	to   crypt.PublicKey
	kind wire.Kind
	body wire.Marshaler
	sign bool
}

// sealSends seals (and optionally signs) each job on the worker pool —
// RSA encrypt and sign are the dominant per-member batch cost — and
// sends each frame, in job order, as soon as it and its predecessors
// are sealed (loop context). Streaming the sends keeps the first
// welcome on the wire within one seal's latency instead of a whole
// batch's: a large flush no longer leaves the network silent while
// hundreds of seals grind, which both overlaps crypto with delivery
// and gives virtual-time drivers a live traffic signal to pace by.
func (c *Controller) sealSends(jobs []sealJob) {
	if len(jobs) == 0 {
		return
	}
	frames := make([]*wire.Frame, len(jobs))
	errs := make([]error, len(jobs))
	ready := make([]chan struct{}, len(jobs))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	self := c.cfg.Transport.Addr()
	go c.pool.Map(len(jobs), func(i int) {
		defer close(ready[i])
		j := jobs[i]
		blob, err := wire.SealBody(j.to, j.body)
		if err != nil {
			errs[i] = err
			return
		}
		f := &wire.Frame{Kind: j.kind, From: self, Body: blob}
		if j.sign {
			f.Sig = c.cfg.Keys.Sign(blob)
		}
		frames[i] = f
	})
	for i := range jobs {
		<-ready[i]
		if frames[i] == nil {
			c.cfg.Logf("%s: sealing %v: %v", c.cfg.ID, jobs[i].kind, errs[i])
			continue
		}
		c.send(jobs[i].addr, frames[i])
	}
}
