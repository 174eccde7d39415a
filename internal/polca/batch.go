package polca

// The batched query engine: the one path on which an oracle over a
// compiled SimProber answers queries. Where the word-at-a-time trie path
// (sessionQueryTrie, kept by interpreted simulators) feeds each suffix
// block by block through a forked session, BatchProber runs three phases
// over one structure-of-arrays block (policy.Batch):
//
//  1. Plan (serial, word order): walk every word's known prefix under its
//     shard lock — exactly walkKnownPrefix, extended with a batch-local
//     overlay so a word sees the prefixes earlier words of the same batch
//     will record. Pending words get a lane; their suffix paths are
//     created up front and placeholder sessions are parked through the
//     regular LRU, reserving each node with the recency the per-session
//     path would give it.
//  2. Execute (one pass per lane over the SoA block): a lane's cache state
//     is one int32 table state plus one int32 content row. The policy
//     input encoding coincides with the kernel's table inputs, and a
//     reset-rooted session's content mirrors the oracle's tracked content
//     cc exactly (Definition 2.3: Ln(i) hits at line i, Evct misses into
//     the table's victim), so replaying a suffix is pure table stepping —
//     no block strings, no membership scans, no session allocations. Park
//     snapshots are row copies within the block.
//  3. Record (serial, word order): write outputs along each word's path
//     and replace every placeholder that survived the LRU with a kernel
//     session materialized from its park row. Placeholders the LRU evicted
//     are dropped, exactly as the serial path would have dropped the fork.
//
// Counters are bit-identical to answering the words one by one on the
// per-session path, by construction: memo hits = known-prefix symbols
// (overlay included, which is what the serial memo would have recorded by
// then), one probe per pending word, and accesses = fast-forward length +
// suffix length + associativity per Evct (the eviction probes a session
// would have issued). The equivalence is asserted against an interpreted
// oracle by TestBatchedOracleMatchesSerial down to the final store state.
//
// Between plan and record, store nodes hold placeholders only the planning
// batch can resolve, so every call — OutputQuery as a batch of one or
// OutputQueryBatch, from any goroutine — holds the engine's mutex from
// plan through record; under it the engine reuses its plans, overlay map
// and SoA block. A batch with an out-of-range symbol is answered word by
// word on the per-session path, so its error semantics stay serial.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/policy"
)

// batchedHint is the BatchHint of a simulator oracle: lockstep planning
// pays off with deep chunks even on one core, so the hint is a constant
// instead of tracking goroutine parallelism.
const batchedHint = 16

// ProbeBatcher is an optional Prober extension executing several
// independent reset-rooted probes in one call — cachequery's replica pool
// implements it by fanning the probes over its frontends, a remote fleet
// by shipping them in one round trip. The oracle groups the
// associativity-many findEvicted probes of each Evct through it. Counters
// are maintained per probe exactly as on the serial path; only error paths
// differ (a failing batch aborts after issuing all probes where the serial
// loop stops at the first).
type ProbeBatcher interface {
	Prober
	ProbeBatch(ctx context.Context, qs [][]blocks.Block) ([]cache.Outcome, error)
}

// errBatchPlaceholder surfaces if a placeholder session escapes its batch.
var errBatchPlaceholder = errors.New("polca: batch placeholder session used outside its batch")

// batchPark is the placeholder Session parked during the plan phase: it
// holds a node's LRU slot with the recency the per-session path would give
// the real fork, and names the lane and depth whose park row materializes
// it at record time.
type batchPark struct {
	lane  int
	depth int
}

// Access implements Session (never legitimately called).
func (p *batchPark) Access(blocks.Block) (cache.Outcome, error) {
	return Missed(), errBatchPlaceholder
}

// Fork implements Session (never legitimately called).
func (p *batchPark) Fork() (Session, error) { return nil, errBatchPlaceholder }

// plannedPark is one placeholder parked at a store node, with the SoA row
// its snapshot lands in.
type plannedPark struct {
	depth int
	node  int32
	row   int
	ph    *batchPark
}

// outPatch fills out[pos] from a producer lane once it has executed: the
// position was known at plan time only through the batch-local overlay.
type outPatch struct {
	pos     int
	srcLane int
	srcPos  int
}

// batchPlan is one word's plan.
type batchPlan struct {
	word []int
	out  []int

	lane        int // SoA lane, -1 when the word is fully known
	k           int // known-prefix length at plan time
	resumeDepth int
	resumeState int32   // table state of a real parked session resumed from
	resumeRow   []int32 // its content, as dense block ids (empty when not resuming one)
	srcLane     int     // producer lane when resuming a placeholder, -1 otherwise
	srcDepth    int

	parks   []plannedPark
	patches []outPatch
}

// ovKey identifies a store node across shards for the batch-local overlay.
type ovKey struct {
	shard int
	node  int32
}

// ovVal names the lane and position that will produce the node's output.
type ovVal struct {
	lane int
	pos  int
}

// BatchProber is the batched execution engine an oracle keeps over a
// compiled SimProber. See the file comment for the three phases; mu
// serializes whole batches, and every other field is scratch reused from
// batch to batch under it.
type BatchProber struct {
	mu      sync.Mutex
	o       *Oracle
	tab     *policy.Table
	n       int // associativity
	plans   []batchPlan
	byLane  []*batchPlan
	overlay map[ovKey]ovVal
	bt      *policy.Batch
}

func newBatchProber(o *Oracle, sp *SimProber) *BatchProber {
	return &BatchProber{o: o, tab: sp.tab, n: sp.n, overlay: make(map[ovKey]ovVal),
		bt: policy.NewBatch(sp.tab, 0, o.cc0IDs)}
}

// query answers one batch under the engine lock, then fires the oracle's
// checkpoint hook once. Sequence numbers, symbol counters and determinism
// audits are issued in word order exactly as the serial loop would.
func (bp *BatchProber) query(ctx context.Context, words [][]int) ([][]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bp.mu.Lock()
	out, err := bp.answer(ctx, words)
	bp.mu.Unlock()
	if err != nil {
		return nil, err
	}
	bp.o.maybeCheckpoint()
	return out, nil
}

// answer is query's locked section.
func (bp *BatchProber) answer(ctx context.Context, words [][]int) ([][]int, error) {
	o := bp.o
	if !bp.inRange(words) {
		out := make([][]int, len(words))
		for i, w := range words {
			ans, err := o.queryWord(ctx, w)
			if err != nil {
				return nil, err
			}
			out[i] = ans
		}
		return out, nil
	}
	seqs := make([]int, len(words))
	for i, w := range words {
		seqs[i] = int(o.outputQueries.Add(1))
		o.symbols.Add(int64(len(w)))
	}
	var out [][]int
	if o.useMemo {
		out = bp.run(words)
	} else {
		out = o.batchedQueryNoMemo(bp.tab, words)
	}
	for i, w := range words {
		if err := o.audit(ctx, seqs[i], w, out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// inRange reports whether every symbol of every word is a policy input.
func (bp *BatchProber) inRange(words [][]int) bool {
	for _, w := range words {
		for _, ip := range w {
			if ip < 0 || ip > bp.n {
				return false
			}
		}
	}
	return true
}

// run answers one batch through the trie-backed engine.
func (bp *BatchProber) run(words [][]int) [][]int {
	bp.plan(words)
	bp.execute()
	bp.record()
	out := make([][]int, len(bp.plans))
	for i := range bp.plans {
		out[i] = bp.plans[i].out
	}
	return out
}

// plan walks every word in order, splitting it into a known prefix and a
// pending suffix, and parks placeholders along the suffix path. It is the
// serial prefix walk with the overlay added; all store and LRU mutations
// happen in exactly the order the per-session path would perform them.
func (bp *BatchProber) plan(words [][]int) {
	o := bp.o
	if cap(bp.plans) < len(words) {
		bp.plans = make([]batchPlan, len(words))
	}
	bp.plans = bp.plans[:len(words)]
	bp.byLane = bp.byLane[:0]
	clear(bp.overlay)
	parkRows := 0
	var memoHits int64
	for i, word := range words {
		p := &bp.plans[i]
		// Keep the previous batch's slices for their capacity.
		*p = batchPlan{word: word, out: make([]int, len(word)), lane: -1, srcLane: -1,
			resumeRow: p.resumeRow[:0], parks: p.parks[:0], patches: p.patches[:0]}

		sh := o.out.Acquire(word)
		node := int32(0)
		k := 0
		resumeNode := int32(-1)
		resumeDepth := 0
		for k < len(word) {
			ip := word[k]
			c := sh.Child(node, ip)
			if c < 0 {
				break
			}
			if sh.Has(c) {
				p.out[k] = int(sh.Val(c).out)
			} else if ov, ok := bp.overlay[ovKey{shard: sh.Index(), node: c}]; ok {
				p.patches = append(p.patches, outPatch{pos: k, srcLane: ov.lane, srcPos: ov.pos})
			} else {
				break
			}
			node = c
			k++
			if sh.Val(c).sess != nil {
				resumeNode, resumeDepth = c, k
			}
		}
		p.k = k
		memoHits += int64(k)
		if k == len(word) {
			if resumeNode >= 0 {
				o.touch(sh, resumeNode)
			}
			sh.Release()
			continue
		}
		if resumeNode >= 0 {
			o.touch(sh, resumeNode)
			switch s := sh.Val(resumeNode).sess.(type) {
			case *batchPark:
				p.srcLane, p.srcDepth = s.lane, s.depth
			default:
				// Only kernel sessions are parked under a compiled prober.
				// They are never mutated once parked, so the snapshot is
				// read in place instead of forked.
				ks := s.(*kernelSession)
				p.resumeState = ks.state
				for _, b := range ks.content {
					id, _ := blocks.Index(b)
					p.resumeRow = append(p.resumeRow, int32(id))
				}
			}
			p.resumeDepth = resumeDepth
		}
		p.lane = len(bp.byLane)
		bp.byLane = append(bp.byLane, p)
		if p.resumeDepth < k {
			ph := &batchPark{lane: p.lane, depth: k}
			o.park(sh, node, ph)
			p.parks = append(p.parks, plannedPark{depth: k, node: node, ph: ph})
		}
		for d := k; d < len(word); d++ {
			node = sh.Extend(node, word[d])
			bp.overlay[ovKey{shard: sh.Index(), node: node}] = ovVal{lane: p.lane, pos: d}
			ph := &batchPark{lane: p.lane, depth: d + 1}
			o.park(sh, node, ph)
			p.parks = append(p.parks, plannedPark{depth: d + 1, node: node, ph: ph})
		}
		parkRows += len(p.parks)
		sh.Release()
	}
	o.memoHits.Add(memoHits)
	// Assign SoA rows: one lane per pending word, then one row per park.
	row := len(bp.byLane)
	for i := range bp.plans {
		p := &bp.plans[i]
		for j := range p.parks {
			p.parks[j].row = row
			row++
		}
	}
	bp.bt.Reset(row)
}

// execute replays every pending lane over the SoA block, in word order so
// producer lanes complete before the lanes that copy their park rows.
func (bp *BatchProber) execute() {
	o, bt, tab, n := bp.o, bp.bt, bp.tab, bp.n
	var probes, accesses int64
	for i := range bp.plans {
		p := &bp.plans[i]
		// Overlay-known positions resolve now: their producers ran already.
		for _, pt := range p.patches {
			p.out[pt.pos] = bp.byLane[pt.srcLane].out[pt.srcPos]
		}
		if p.lane < 0 {
			continue
		}
		switch {
		case len(p.resumeRow) > 0:
			bt.LoadLane(p.lane, p.resumeState, p.resumeRow)
		case p.srcLane >= 0:
			bt.CopyLane(p.lane, bp.rowOf(p.srcLane, p.srcDepth))
		default:
			// Fresh from reset: Reset seeded the lane already.
		}
		st := bt.State(p.lane)
		row := bt.Row(p.lane)
		// Fast-forward the known tail: outputs are recorded, so this is
		// pure stepping — the serial path's "pure feeding, no probes".
		for d := p.resumeDepth; d < p.k; d++ {
			st, _ = tab.Step(st, p.word[d])
			if op := p.out[d]; op != policy.Bottom {
				row[op] = freshID(row)
			}
			accesses++
		}
		pk := 0
		if pk < len(p.parks) && p.parks[pk].depth == p.k {
			bt.SetState(p.lane, st)
			bt.CopyLane(p.parks[pk].row, p.lane)
			pk++
		}
		for d := p.k; d < len(p.word); d++ {
			ip := p.word[d]
			if ip < n {
				// Ln(ip): the fed block is the content of line ip, so it
				// hits there by the content/cc invariant — table input ip.
				st, _ = tab.Step(st, ip)
				p.out[d] = policy.Bottom
				accesses++
			} else {
				// Evct: a fresh block misses; the table's output is the
				// victim the findEvicted probes would identify, and those
				// associativity-many probes are accounted as the session
				// path would issue them.
				var v int32
				st, v = tab.Step(st, n)
				p.out[d] = int(v)
				row[v] = freshID(row)
				accesses += int64(1 + n)
			}
			if pk < len(p.parks) && p.parks[pk].depth == d+1 {
				bt.SetState(p.lane, st)
				bt.CopyLane(p.parks[pk].row, p.lane)
				pk++
			}
		}
		bt.SetState(p.lane, st)
		probes++
	}
	o.probesN.Add(probes)
	o.accessesN.Add(accesses)
}

// rowOf returns the park row of (lane, depth).
func (bp *BatchProber) rowOf(lane, depth int) int {
	for _, pk := range bp.byLane[lane].parks {
		if pk.depth == depth {
			return pk.row
		}
	}
	panic(fmt.Sprintf("polca: no park row for lane %d depth %d", lane, depth))
}

// record writes every pending word's outputs into the store and swaps
// surviving placeholders for kernel sessions materialized from their park
// rows — recordOutputs with parking replaced by resolution.
func (bp *BatchProber) record() {
	o := bp.o
	for i := range bp.plans {
		p := &bp.plans[i]
		if p.lane < 0 {
			continue
		}
		sh := o.out.Acquire(p.word)
		node := int32(0)
		pk := 0
		for d, ip := range p.word {
			node = sh.Extend(node, ip)
			v := sh.Val(node)
			v.out = int16(p.out[d])
			sh.SetHas(node)
			for pk < len(p.parks) && p.parks[pk].depth == d+1 {
				park := p.parks[pk]
				if sh.Val(park.node).sess == park.ph {
					sh.Val(park.node).sess = bp.materialize(park.row)
				}
				pk++
			}
		}
		sh.Release()
	}
}

// materialize builds the kernel session a park row snapshot stands for.
func (bp *BatchProber) materialize(row int) Session {
	ids := bp.bt.Row(row)
	content := make([]blocks.Block, len(ids))
	for i, id := range ids {
		content[i] = blocks.Interned(int(id))
	}
	return &kernelSession{tab: bp.tab, state: bp.bt.State(row), content: content}
}

// batchedQueryNoMemo is the memo-less SoA path (the WithoutMemo ablation):
// every word runs from reset, so all lanes advance position by position and
// runs of lanes sharing a symbol step through the table in one StepBatchOut
// pass over the contiguous state vector. Counters match the memo-less
// session path: one probe per word, len + assoc·#Evct accesses.
func (o *Oracle) batchedQueryNoMemo(tab *policy.Table, words [][]int) [][]int {
	n := tab.Assoc()
	L := len(words)
	bt := policy.NewBatch(tab, L, o.cc0IDs)
	out := make([][]int, L)
	maxLen := 0
	for i, w := range words {
		out[i] = make([]int, len(w))
		if len(w) > maxLen {
			maxLen = len(w)
		}
	}
	vout := make([]int32, L)
	var accesses int64
	for pos := 0; pos < maxLen; pos++ {
		for lo := 0; lo < L; {
			if len(words[lo]) <= pos {
				lo++
				continue
			}
			sym := words[lo][pos]
			hi := lo + 1
			for hi < L && len(words[hi]) > pos && words[hi][pos] == sym {
				hi++
			}
			bt.StepRun(lo, hi, sym, vout)
			if sym == n {
				for l := lo; l < hi; l++ {
					row := bt.Row(l)
					v := vout[l]
					row[v] = freshID(row)
					out[l][pos] = int(v)
				}
				accesses += int64(hi-lo) * int64(1+n)
			} else {
				for l := lo; l < hi; l++ {
					out[l][pos] = policy.Bottom
				}
				accesses += int64(hi - lo)
			}
			lo = hi
		}
	}
	o.probesN.Add(int64(L))
	o.accessesN.Add(accesses)
	return out
}

// probeGroup executes independent reset-rooted probes as grouped
// ProbeBatch calls with executeProbe's resilience: WithProbeVotes re-runs
// the whole group and majority-votes each probe, and a transient group
// failure is absorbed by re-executing the group's probes one by one
// through the retry policy (the failed call does not say which probe
// failed, and probes are idempotent).
func (o *Oracle) probeGroup(ctx context.Context, bpr ProbeBatcher, qs [][]blocks.Block) ([]cache.Outcome, error) {
	hits := make([]int, len(qs))
	for v := 0; v < o.votes; v++ {
		ocs, err := bpr.ProbeBatch(ctx, qs)
		if err != nil && o.retry.enabled() && IsTransient(err) {
			o.retriesN.Add(1)
			ocs = make([]cache.Outcome, len(qs))
			for i, q := range qs {
				if ocs[i], err = o.retryProbe(ctx, q, false); err != nil {
					break
				}
			}
		}
		if err != nil {
			return nil, err
		}
		for i, oc := range ocs {
			if oc == cache.Hit {
				hits[i]++
			}
		}
	}
	out := make([]cache.Outcome, len(qs))
	for i, h := range hits {
		if h != 0 && h != o.votes {
			o.disagreeN.Add(1)
		}
		if h*2 > o.votes {
			out[i] = cache.Hit
		}
	}
	return out, nil
}

// findEvictedBatched is mapOutputProbes' eviction-probe loop grouped into
// one ProbeBatch call: the associativity-many probes are independent and
// reset-rooted, so a replica pool executes them concurrently. Counters per
// probe match the serial loop.
func (o *Oracle) findEvictedBatched(ctx context.Context, bpr ProbeBatcher, ic []blocks.Block, cc []blocks.Block) (int, error) {
	n := o.prober.Assoc()
	qs := make([][]blocks.Block, n)
	for i := 0; i < n; i++ {
		qs[i] = append(append(make([]blocks.Block, 0, len(ic)+1), ic...), cc[i])
	}
	ocs, err := o.probeGroup(ctx, bpr, qs)
	if err != nil {
		return 0, err
	}
	for _, q := range qs {
		o.probesN.Add(1)
		o.accessesN.Add(int64(len(q)))
	}
	return victim(ocs, func(i int) blocks.Block { return cc[i] })
}

// victim returns the one line whose eviction probe missed, or the
// ErrNondeterministic any other number of misses amounts to; name(i)
// names the block resident at line i.
func victim(ocs []cache.Outcome, name func(int) blocks.Block) (int, error) {
	evicted := -1
	for i, oc := range ocs {
		if oc != cache.Miss {
			continue
		}
		if evicted != -1 {
			return 0, fmt.Errorf("%w: blocks %s and %s both evicted by one miss", ErrNondeterministic, name(evicted), name(i))
		}
		evicted = i
	}
	if evicted == -1 {
		return 0, fmt.Errorf("%w: no resident block evicted by a miss", ErrNondeterministic)
	}
	return evicted, nil
}

// findEvictedTrieBatched is mapOutputTrie's eviction-probe loop grouped
// into one ProbeBatch call on the memoized trie path — the shape a remote
// fleet needs: the associativity-many probes of one Evct either answer
// from the probe trie or ship together as a single round trip instead of
// associativity sequential ones. Each probe first walks the exact serial
// memo protocol (hit, join an in-flight execution, or claim the
// single-flight slot); only the claimed residue is batched. Bookkeeping is
// per probe identical to the serial loop — memoHits for hits and joins,
// probesN/accessesN on execution, memo entries recorded under the same
// trie nodes — so stores, counters and answers match a serial run
// bit-for-bit. Only error delivery differs, exactly as in
// findEvictedBatched: a failing batch fails all claimed probes after
// issuing them, where the serial loop stops at the first.
func (o *Oracle) findEvictedTrieBatched(ctx context.Context, bpr ProbeBatcher, ic []int32, icN []blocks.Block, cc []int32) (int, error) {
	n := o.prober.Assoc()
	ocs := make([]cache.Outcome, n)
	qs := make([][]blocks.Block, n)
	pids := make([][]int32, n)
	type flight struct {
		i    int
		node int32
		fl   *inflightProbe
	}
	var claims, waits []flight
	for i := 0; i < n; i++ {
		pids[i] = append(append(make([]int32, 0, len(ic)+1), ic...), cc[i])
		qs[i] = append(append(make([]blocks.Block, 0, len(icN)+1), icN...), blocks.Interned(int(cc[i])))
		sh := o.pt.Acquire(pids[i])
		node := sh.Ensure(pids[i])
		switch {
		case sh.Has(node):
			ocs[i] = sh.Val(node).oc
			o.memoHits.Add(1)
			sh.Release()
		case sh.Val(node).fl != nil:
			fl := sh.Val(node).fl
			sh.Release()
			waits = append(waits, flight{i, node, fl})
		default:
			fl := &inflightProbe{done: make(chan struct{})}
			sh.Val(node).fl = fl
			sh.Release()
			claims = append(claims, flight{i, node, fl})
		}
	}
	var groupErr error
	if len(claims) > 0 {
		sub := make([][]blocks.Block, len(claims))
		for j, c := range claims {
			sub[j] = qs[c.i]
		}
		res, err := o.probeGroup(ctx, bpr, sub)
		groupErr = err
		for j, c := range claims {
			if err == nil {
				c.fl.oc = res[j]
				ocs[c.i] = res[j]
			} else {
				c.fl.err = err
			}
			sh := o.pt.Acquire(pids[c.i])
			sh.Val(c.node).fl = nil
			if err == nil {
				o.probesN.Add(1)
				o.accessesN.Add(int64(len(qs[c.i])))
				sh.Put(c.node, probeVal{oc: c.fl.oc})
			}
			sh.Release()
			close(c.fl.done)
		}
	}
	for _, w := range waits {
		<-w.fl.done
		if w.fl.err != nil {
			if groupErr == nil {
				groupErr = w.fl.err
			}
			continue
		}
		o.memoHits.Add(1)
		ocs[w.i] = w.fl.oc
	}
	if groupErr != nil {
		return 0, groupErr
	}
	name := func(i int) blocks.Block { return blocks.Interned(int(cc[i])) }
	evicted, err := victim(ocs, name)
	if err != nil {
		// An inconsistent eviction group means at least one probe in it is
		// wrong — re-measure the whole group serially (correcting the memo,
		// exactly as the serial scan's refresh pass) before giving up.
		for i := 0; i < n; i++ {
			poc, rerr := o.reprobe(ctx, qs[i], pids[i])
			if rerr != nil {
				return 0, rerr
			}
			ocs[i] = poc
		}
		evicted, err = victim(ocs, name)
	}
	return evicted, err
}
