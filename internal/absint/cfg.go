package absint

import (
	"slices"

	"paravis/internal/minic"
	"paravis/internal/slab"
)

// This file lowers the structured statement AST to an explicit control
// flow graph the worklist solver iterates over. MiniC has no break,
// continue or goto, so the only back edges are for-loop latches and
// every cycle passes through a loop-head block — the widening points.

type instrKind int

const (
	ikStmt instrKind = iota // DeclStmt / ExprStmt / BarrierStmt
	ikTargetEnter
	ikTargetExit
)

type instr struct {
	kind instrKind
	s    minic.Stmt
	ts   *minic.TargetStmt // for enter/exit
}

// block is one straight-line run of instructions ended by either an
// unconditional jump (cond nil, next possibly nil = function exit) or a
// two-way branch on cond (tsucc / fsucc).
type block struct {
	id     int
	instrs []instr

	cond     minic.Expr
	condStmt minic.Stmt // the IfStmt/ForStmt owning cond, for reporting
	// impure: evaluating cond may change tracked state (set by wire).
	impure bool
	tsucc  *block
	fsucc  *block
	next   *block

	isLoopHead bool
	loop       *minic.ForStmt
	latch      *block // the back-edge predecessor of a loop head
	inRegion   bool

	preds []*block
	order int // reverse-postorder index
}

type cfg struct {
	entry  *block
	blocks []*block
	rpo    []*block
	heads  []*block // indexed by ForStmt.ID
}

// cfgBuilder carves the blocks from a slab and gathers every block's
// instructions on one list, which done splits into per-block slices of
// one array.
type cfgBuilder struct {
	g        *cfg
	inRegion bool
	slab     slab.Of[block]
	instrs   []blockInstr
}

type blockInstr struct {
	bl *block
	in instr
}

func (b *cfgBuilder) newBlock() *block {
	bl := b.slab.New(block{id: len(b.g.blocks), inRegion: b.inRegion})
	b.g.blocks = append(b.g.blocks, bl)
	return bl
}

func (b *cfgBuilder) add(bl *block, in instr) {
	b.instrs = append(b.instrs, blockInstr{bl, in})
}

// done gives each block its instructions, in order.
func (b *cfgBuilder) done() {
	counts := make([]int, len(b.g.blocks))
	for _, bi := range b.instrs {
		counts[bi.bl.id]++
	}
	all := make([]instr, len(b.instrs))
	for _, bl := range b.g.blocks {
		n := counts[bl.id]
		bl.instrs, all = all[:0:n], all[n:]
	}
	for _, bi := range b.instrs {
		bi.bl.instrs = append(bi.bl.instrs, bi.in)
	}
}

// buildCFG lowers the function body. Unreachable trailing code (after a
// return) still gets blocks; they simply never receive a flow state.
func buildCFG(fn *minic.FuncDecl) *cfg {
	// The lists start at sizes that hold a seed kernel's CFG.
	g := &cfg{heads: make([]*block, fn.NumLoops), blocks: make([]*block, 0, 32)}
	b := &cfgBuilder{g: g, instrs: make([]blockInstr, 0, 64)}
	g.entry = b.newBlock()
	end := b.stmt(g.entry, fn.Body)
	if end != nil {
		end.next = nil
	}
	b.done()
	g.wire()
	return g
}

// stmt appends s to cur and returns the block where control continues,
// or nil when the path returned.
func (b *cfgBuilder) stmt(cur *block, s minic.Stmt) *block {
	if cur == nil {
		// Dead code after a return: give it an unreachable block so the
		// walk stays uniform.
		cur = b.newBlock()
	}
	switch st := s.(type) {
	case *minic.BlockStmt:
		for _, c := range st.Stmts {
			cur = b.stmt(cur, c)
		}
		return cur
	case *minic.DeclStmt, *minic.ExprStmt, *minic.BarrierStmt:
		b.add(cur, instr{kind: ikStmt, s: s})
		return cur
	case *minic.ReturnStmt:
		b.add(cur, instr{kind: ikStmt, s: s})
		cur.next = nil
		return nil
	case *minic.CriticalStmt:
		return b.stmt(cur, st.Body)
	case *minic.IfStmt:
		thenB := b.newBlock()
		after := b.newBlock()
		cur.cond, cur.condStmt = st.Cond, st
		cur.tsucc = thenB
		if st.Else != nil {
			elseB := b.newBlock()
			cur.fsucc = elseB
			if end := b.stmt(elseB, st.Else); end != nil {
				end.next = after
			}
		} else {
			cur.fsucc = after
		}
		if end := b.stmt(thenB, st.Then); end != nil {
			end.next = after
		}
		return after
	case *minic.ForStmt:
		for _, c := range st.Init {
			cur = b.stmt(cur, c)
		}
		head := b.newBlock()
		head.isLoopHead = true
		head.loop = st
		if id := st.ID(); id >= 0 && id < len(b.g.heads) {
			b.g.heads[id] = head
		}
		cur.next = head
		body := b.newBlock()
		after := b.newBlock()
		if st.Cond != nil {
			head.cond, head.condStmt = st.Cond, st
			head.tsucc, head.fsucc = body, after
		} else {
			head.next = body // for(;;): after is unreachable
		}
		end := b.stmt(body, st.Body)
		for _, c := range st.Post {
			end = b.stmt(end, c)
		}
		if end != nil {
			end.next = head
			head.latch = end
		}
		return after
	case *minic.TargetStmt:
		b.add(cur, instr{kind: ikTargetEnter, s: st, ts: st})
		saved := b.inRegion
		b.inRegion = true
		bodyB := b.newBlock()
		cur.next = bodyB
		end := b.stmt(bodyB, st.Body)
		b.inRegion = saved
		after := b.newBlock()
		if end != nil {
			end.next = after
		}
		b.add(after, instr{kind: ikTargetExit, s: st, ts: st})
		return after
	}
	return cur
}

// succs returns bl's successors, stored in buf.
func (bl *block) succs(buf *[2]*block) []*block {
	switch {
	case bl.cond != nil && bl.tsucc != bl.fsucc:
		buf[0], buf[1] = bl.tsucc, bl.fsucc
		return buf[:2]
	case bl.cond != nil:
		buf[0] = bl.tsucc
	case bl.next != nil:
		buf[0] = bl.next
	default:
		return buf[:0]
	}
	return buf[:1]
}

// wire fills predecessor lists, carved from one array, and the reverse
// postorder, and classifies each branch condition once for every
// transfer of its block.
func (g *cfg) wire() {
	var buf [2]*block
	counts := make([]int, len(g.blocks))
	edges := 0
	for _, bl := range g.blocks {
		for _, s := range bl.succs(&buf) {
			counts[s.id]++
			edges++
		}
		if bl.cond != nil {
			bl.impure = impure(bl.cond)
		}
	}
	preds := make([]*block, edges)
	for _, bl := range g.blocks {
		bl.preds, preds = preds[:0:counts[bl.id]], preds[counts[bl.id]:]
	}
	for _, bl := range g.blocks {
		for _, s := range bl.succs(&buf) {
			s.preds = append(s.preds, bl)
		}
	}
	g.rpo = g.postorder(g.entry, make([]bool, len(g.blocks)), make([]*block, 0, len(g.blocks)))
	slices.Reverse(g.rpo)
	for i, bl := range g.rpo {
		bl.order = i
	}
}

// postorder appends the blocks reachable from bl to post in depth-first
// postorder.
func (g *cfg) postorder(bl *block, seen []bool, post []*block) []*block {
	if seen[bl.id] {
		return post
	}
	seen[bl.id] = true
	var buf [2]*block
	for _, s := range bl.succs(&buf) {
		post = g.postorder(s, seen, post)
	}
	return append(post, bl)
}
