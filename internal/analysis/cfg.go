package analysis

import (
	"go/ast"
	"go/token"
)

// CFG is the intra-procedural control-flow graph of one function body,
// the substrate of the flow-sensitive passes (lockcheck, errflow). It
// is built from syntax alone — no types — so it can be constructed for
// any parsed function, and it makes three simplifications that are
// sound for the analyses built on top of it:
//
//   - Statements with no internal control flow land whole in a block's
//     node list; conditions and switch tags are appended as bare
//     expression nodes, so a transfer function sees every evaluated
//     expression in order. Function literals are NOT expanded — each
//     FuncLit body is its own CFG; transfer functions must not walk
//     into them.
//   - defer is modeled with may-run exit edges: every return (and the
//     fall-off-the-end path) routes through a synthetic exit prelude
//     that replays each deferred call, innermost-last, wrapped in a
//     *DeferredNode so transfers can tell replayed calls from inline
//     ones. A DeferStmt's own node stays in its home block because its
//     arguments are evaluated there; only the call's EFFECT is
//     deferred.
//   - panic(...) statements terminate their block through the exit
//     prelude (defers run on panic), and goto edges jump to the
//     labeled block, so the early-return and restart-loop shapes in
//     this repository (stats.CentroidIndex.Nearest) build correctly.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	// Exit is the single synthetic exit block (always empty); every
	// terminating path reaches it through the defer prelude.
	Exit *Block
	// Defers lists every defer statement in the body, in source order.
	Defers []*ast.DeferStmt
}

// Block is one straight-line run of nodes. Nodes are statements
// without internal control flow, bare condition/tag expressions, or
// *DeferredNode markers in the exit prelude.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// DeferredNode marks one deferred call replayed on the exit path. The
// wrapped call's arguments were already evaluated at the DeferStmt;
// only the call itself runs here.
type DeferredNode struct {
	Call *ast.CallExpr
}

func (d *DeferredNode) Pos() token.Pos { return d.Call.Pos() }
func (d *DeferredNode) End() token.Pos { return d.Call.End() }

// NewCFG builds the control-flow graph of one function body.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: map[string]*Block{},
	}
	b.cfg.Entry = b.newBlock()
	b.cur = b.cfg.Entry
	// prelude and Exit are allocated up front so returns anywhere in
	// the body have a stable target; prelude nodes (the deferred-call
	// replays) are filled in once every defer has been seen.
	b.prelude = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.edge(b.prelude, b.cfg.Exit)

	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.prelude)
	}
	for i := len(b.cfg.Defers) - 1; i >= 0; i-- {
		b.prelude.Nodes = append(b.prelude.Nodes, &DeferredNode{Call: b.cfg.Defers[i].Call})
	}
	for _, blk := range b.cfg.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return b.cfg
}

type loopFrame struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select frames (break only)
}

type cfgBuilder struct {
	cfg     *CFG
	cur     *Block // nil while flow is unreachable
	prelude *Block
	frames  []*loopFrame
	labels  map[string]*Block // goto / labeled-loop targets
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// reach ensures there is a current block to append to; statements after
// a terminator land in a fresh unreachable block (no preds), which the
// solver reports as unreached.
func (b *cfgBuilder) reach() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	blk := b.reach()
	blk.Nodes = append(blk.Nodes, n)
}

// labelBlock returns (creating if needed) the target block of a label,
// so forward gotos can reference blocks not yet laid out.
func (b *cfgBuilder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// The loop head doubles as the goto target for the label.
			b.stmt(s.Stmt, s.Label.Name)
		default:
			target := b.labelBlock(s.Label.Name)
			if b.cur != nil {
				b.edge(b.cur, target)
			}
			b.cur = target
			b.stmt(s.Stmt, "")
		}
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, label)
	case *ast.RangeStmt:
		b.rangeStmt(s, label)
	case *ast.SwitchStmt:
		b.switchStmt(s, label)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, label)
	case *ast.SelectStmt:
		b.selectStmt(s, label)
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.prelude)
		b.cur = nil
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.DeferStmt:
		b.cfg.Defers = append(b.cfg.Defers, s)
		b.add(s)
	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				b.edge(b.cur, b.prelude)
				b.cur = nil
			}
		}
	case *ast.EmptyStmt:
		// nothing
	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, ...
		b.add(s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	cond := b.reach()

	thenB := b.newBlock()
	b.edge(cond, thenB)
	b.cur = thenB
	b.stmtList(s.Body.List)
	thenEnd := b.cur

	var elseEnd *Block
	hasElse := s.Else != nil
	if hasElse {
		elseB := b.newBlock()
		b.edge(cond, elseB)
		b.cur = elseB
		b.stmt(s.Else, "")
		elseEnd = b.cur
	}

	join := b.newBlock()
	if thenEnd != nil {
		b.edge(thenEnd, join)
	}
	if hasElse {
		if elseEnd != nil {
			b.edge(elseEnd, join)
		}
	} else {
		b.edge(cond, join)
	}
	b.cur = join
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	var head *Block
	if label != "" {
		head = b.labelBlock(label)
	} else {
		head = b.newBlock()
	}
	b.edge(b.reach(), head)
	b.cur = head
	if s.Cond != nil {
		b.add(s.Cond)
	}
	condEnd := b.cur // cond may not split the head; keep it simple

	bodyB := b.newBlock()
	b.edge(condEnd, bodyB)
	done := b.newBlock()
	if s.Cond != nil {
		b.edge(condEnd, done)
	}

	post := b.newBlock()
	if s.Post != nil {
		post.Nodes = append(post.Nodes, s.Post)
	}
	b.edge(post, head)

	b.frames = append(b.frames, &loopFrame{label: label, breakTo: done, continueTo: post})
	b.cur = bodyB
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, post)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	b.add(s.X)
	var head *Block
	if label != "" {
		head = b.labelBlock(label)
	} else {
		head = b.newBlock()
	}
	b.edge(b.reach(), head)

	bodyB := b.newBlock()
	done := b.newBlock()
	b.edge(head, bodyB)
	b.edge(head, done)

	b.frames = append(b.frames, &loopFrame{label: label, breakTo: done, continueTo: head})
	b.cur = bodyB
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, head)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	head := b.reach()
	if label != "" {
		// A labeled switch: goto/break label resolve to its blocks.
		b.labels[label] = head
	}
	done := b.newBlock()
	b.frames = append(b.frames, &loopFrame{label: label, breakTo: done})

	var clauses []*ast.CaseClause
	for _, c := range s.Body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	// Case expressions are evaluated in source order until one matches:
	// each clause's test block enters its body or falls through to the
	// next test, and the last test falls through to the default clause,
	// or past the switch when there is none.
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock()
	}
	miss := head
	var deflt *Block
	for i, c := range clauses {
		if c.List == nil {
			deflt = blocks[i]
			continue
		}
		b.cur = b.newBlock()
		b.edge(miss, b.cur)
		for _, e := range c.List {
			b.add(e)
		}
		b.edge(b.cur, blocks[i])
		miss = b.cur
	}
	if deflt == nil {
		deflt = done
	}
	b.edge(miss, deflt)
	for i, c := range clauses {
		b.cur = blocks[i]
		fallsThrough := false
		for _, st := range c.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				continue
			}
			b.stmt(st, "")
		}
		if b.cur != nil {
			if fallsThrough && i+1 < len(blocks) {
				b.edge(b.cur, blocks[i+1])
			} else {
				b.edge(b.cur, done)
			}
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	head := b.reach()
	if label != "" {
		b.labels[label] = head
	}
	done := b.newBlock()
	b.frames = append(b.frames, &loopFrame{label: label, breakTo: done})
	hasDefault := false
	for _, st := range s.Body.List {
		c := st.(*ast.CaseClause)
		if c.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		b.edge(head, blk)
		b.cur = blk
		b.stmtList(c.Body)
		if b.cur != nil {
			b.edge(b.cur, done)
		}
	}
	if !hasDefault {
		b.edge(head, done)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.reach()
	if label != "" {
		b.labels[label] = head
	}
	done := b.newBlock()
	b.frames = append(b.frames, &loopFrame{label: label, breakTo: done})
	for _, st := range s.Body.List {
		c := st.(*ast.CommClause)
		blk := b.newBlock()
		b.edge(head, blk)
		b.cur = blk
		if c.Comm != nil {
			b.add(c.Comm)
		}
		b.stmtList(c.Body)
		if b.cur != nil {
			b.edge(b.cur, done)
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	switch s.Tok {
	case token.GOTO:
		target := b.labelBlock(s.Label.Name)
		b.edge(b.reach(), target)
		b.cur = nil
	case token.BREAK:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if s.Label == nil || f.label == s.Label.Name {
				b.edge(b.reach(), f.breakTo)
				b.cur = nil
				return
			}
		}
		b.cur = nil // break with no matching frame: malformed, drop flow
	case token.CONTINUE:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if f.continueTo == nil {
				continue // switch/select frames are not continue targets
			}
			if s.Label == nil || f.label == s.Label.Name {
				b.edge(b.reach(), f.continueTo)
				b.cur = nil
				return
			}
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// handled in switchStmt; a stray fallthrough terminates flow
		b.cur = nil
	}
}
