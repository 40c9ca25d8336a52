package cluster

// Anti-entropy journal repair. The ship loop is an optimistic tail: one
// chunk per tick, ingested only while the origin's journal generation
// matches the replica's. Two situations need more than optimism, and the
// repair pass owns both:
//
//   - Generation change: the origin reopened its journal (restart,
//     truncation, replacement). The replica's records and byte offset
//     describe a journal that no longer exists; repair drops the replica,
//     rewinds to offset zero under the new generation, and refetches —
//     the only convergent response, since old offsets may now point into
//     the middle of different bytes.
//
//   - Backlog after a heal: a partition or latency storm leaves the
//     replica many chunks behind. The ship loop would drain that at one
//     chunk per ShipInterval; repair drains it in a burst of at most
//     repairBurst chunks so /compare census identity returns promptly
//     after the heal.
//
// Repair traffic is visible: splash4d_repair_bytes_total counts every
// byte the pass pulled, splash4d_journal_resyncs_total every
// generation-change resync.

// repairBurst caps the journal chunks one repair pass pulls per peer while
// draining a backlog.
const repairBurst = 64

// repairLoop runs the periodic anti-entropy pass over every peer.
//
//sync4:req SYNC4-CLUS-003 v2 MUST After a partition heals or a peer reopens its journal under a new generation, the anti-entropy repair pass resynchronizes the replica (dropping it and refetching from offset zero on a generation change) so that every node's /compare census converges back to byte identity.
func (c *Cluster) repairLoop() {
	defer c.wg.Done()
	for {
		if !c.sleep(c.cfg.RepairInterval) {
			return
		}
		for _, id := range c.order {
			if id == c.cfg.Self {
				continue
			}
			c.repairPeer(c.peers[id])
		}
	}
}

// repairPeer reconciles one peer's replica: resync on generation change,
// then burst-drain any remaining backlog.
func (c *Cluster) repairPeer(p *peer) {
	if !p.up.Load() {
		return
	}
	gen := p.gen.Load()
	synced := p.syncedGen.Load()
	if gen != 0 && synced != 0 && gen != synced {
		// Hold syncMu across the reset and the first refetch so the ship
		// loop cannot interleave a fetch between the rewind and the first
		// chunk of the new generation.
		p.syncMu.Lock()
		p.replica.Reset()
		p.offset.Store(0)
		p.resetTail()
		p.skipped.Store(0)
		p.syncedGen.Store(gen)
		c.resyncs.v.Add(1)
		c.cfg.Logf("cluster: peer %s journal generation changed, resyncing replica from 0", p.id)
		n, err := c.fetchJournalLocked(p)
		p.syncMu.Unlock()
		if err != nil {
			return
		}
		c.repairBytes.v.Add(int64(n))
	}
	// Drain backlog in a bounded burst.
	for i := 0; i < repairBurst && p.shipLag() > 0; i++ {
		n, err := c.fetchJournal(p)
		if err != nil || n == 0 {
			return
		}
		c.repairBytes.v.Add(int64(n))
	}
}
