package sql

import (
	"fmt"
	"strings"

	"riot/internal/relation"
)

const maxViewDepth = 64

// expandViews merges view references in FROM into the statement itself,
// recursively. A view is mergeable when its definition is a plain
// select-project-join (no GROUP BY / ORDER BY / LIMIT / aggregates);
// merging rewrites outer references through the view's select items —
// the query expansion step the paper attributes to the database's view
// facility. Non-mergeable views are left in place and planned as
// subquery barriers by planFrom.
func (db *Database) expandViews(sel *SelectStmt, depth int) (*SelectStmt, error) {
	if depth > maxViewDepth {
		return nil, fmt.Errorf("sql: view nesting exceeds %d (cycle?)", maxViewDepth)
	}
	out := &SelectStmt{
		Items:   append([]SelectItem(nil), sel.Items...),
		Where:   sel.Where,
		GroupBy: append([]Expr(nil), sel.GroupBy...),
		OrderBy: append([]OrderItem(nil), sel.OrderBy...),
		Limit:   sel.Limit,
	}
	// `*` must be expanded against the FROM list as written, before any
	// view merging widens it to the views' base tables.
	if len(out.Items) == 1 && out.Items[0].Star {
		var items []SelectItem
		for _, ref := range sel.From {
			cols, err := db.relationCols(ref.Name)
			if err != nil {
				return nil, err
			}
			for _, c := range cols {
				items = append(items, SelectItem{Expr: ColRef{Table: ref.Bind(), Name: c}, Alias: c})
			}
		}
		out.Items = items
	}
	changed := false
	for _, ref := range sel.From {
		v, isView := db.ViewDef(ref.Name)
		if !isView || !mergeable(v.Def) {
			out.From = append(out.From, ref)
			continue
		}
		changed = true
		bind := ref.Bind()
		// Recursively expand the view body first.
		body, err := db.expandViews(v.Def, depth+1)
		if err != nil {
			return nil, err
		}
		// Fresh aliases for the view's FROM items.
		rename := make(map[string]string)
		for _, inner := range body.From {
			fresh := db.tempName(bind + "$" + inner.Bind())
			rename[strings.ToLower(inner.Bind())] = fresh
			out.From = append(out.From, TableRef{Name: inner.Name, Alias: fresh})
		}
		requal := func(c ColRef) (Expr, bool) {
			if c.Table == "" {
				// Unqualified inside the view body: resolvable iff the
				// body has a single FROM item.
				if len(body.From) == 1 {
					for _, fresh := range rename {
						return ColRef{Table: fresh, Name: c.Name}, true
					}
				}
				return nil, false
			}
			if fresh, ok := rename[strings.ToLower(c.Table)]; ok {
				return ColRef{Table: fresh, Name: c.Name}, true
			}
			return nil, false
		}
		// Column substitution: bind.col -> view item expr (requalified).
		subs := make(map[string]Expr)
		for i, item := range body.Items {
			if i >= len(v.Cols) {
				break
			}
			subs[strings.ToLower(v.Cols[i])] = substituteCols(item.Expr, requal)
		}
		replace := func(c ColRef) (Expr, bool) {
			if !strings.EqualFold(c.Table, bind) {
				return nil, false
			}
			e, ok := subs[strings.ToLower(c.Name)]
			if !ok {
				return nil, false
			}
			return e, true
		}
		// Rewrite outer expressions.
		for i := range out.Items {
			if !out.Items[i].Star {
				if out.Items[i].Alias == "" {
					// Preserve the user-visible name through expansion.
					if c, ok := out.Items[i].Expr.(ColRef); ok && strings.EqualFold(c.Table, bind) {
						out.Items[i].Alias = c.Name
					}
				}
				out.Items[i].Expr = substituteCols(out.Items[i].Expr, replace)
			}
		}
		if out.Where != nil {
			out.Where = substituteCols(out.Where, replace)
		}
		for i := range out.GroupBy {
			out.GroupBy[i] = substituteCols(out.GroupBy[i], replace)
		}
		for i := range out.OrderBy {
			out.OrderBy[i].Expr = substituteCols(out.OrderBy[i].Expr, replace)
		}
		// The view's own WHERE joins the outer one.
		if body.Where != nil {
			w := substituteCols(body.Where, requal)
			if out.Where == nil {
				out.Where = w
			} else {
				out.Where = BinExpr{Op: "AND", L: out.Where, R: w}
			}
		}
	}
	if changed {
		// New view references may have been pulled in.
		return db.expandViews(out, depth+1)
	}
	return out, nil
}

// relationCols returns the visible column names of a table or view.
func (db *Database) relationCols(name string) ([]string, error) {
	if t, ok := db.Table(name); ok {
		return t.Schema.Cols, nil
	}
	if v, ok := db.ViewDef(name); ok {
		return v.Cols, nil
	}
	return nil, fmt.Errorf("sql: unknown relation %q", name)
}

// mergeable reports whether a view body can be inlined.
func mergeable(s *SelectStmt) bool {
	if len(s.GroupBy) > 0 || len(s.OrderBy) > 0 || s.Limit >= 0 {
		return false
	}
	for _, item := range s.Items {
		if item.Star || hasAggregate(item.Expr) {
			return false
		}
	}
	return true
}

// planFrom plans a single FROM reference: a base-table scan or a view
// subplan barrier.
func (db *Database) planFrom(ref TableRef) (*plan, error) {
	bind := ref.Bind()
	if t, ok := db.Table(ref.Name); ok {
		schema := make([]colInfo, t.Schema.Arity())
		for i, c := range t.Schema.Cols {
			schema[i] = colInfo{qual: bind, name: c}
		}
		return &plan{
			it:     relation.NewSeqScan(t.Heap),
			schema: schema,
			sorted: append([]int(nil), t.PK...),
			unique: len(t.PK) > 0,
			rows:   t.Rows(),
			desc:   fmt.Sprintf("Scan(%s)", t.Name),
		}, nil
	}
	if v, ok := db.ViewDef(ref.Name); ok {
		sub, err := db.planSelect(v.Def)
		if err != nil {
			return nil, err
		}
		schema := make([]colInfo, len(sub.schema))
		for i := range sub.schema {
			name := sub.schema[i].name
			if i < len(v.Cols) {
				name = v.Cols[i]
			}
			schema[i] = colInfo{qual: bind, name: name}
		}
		return &plan{
			it:     sub.it,
			schema: schema,
			sorted: sub.sorted,
			unique: sub.unique,
			rows:   sub.rows,
			desc:   fmt.Sprintf("View(%s, %s)", v.Name, sub.desc),
		}, nil
	}
	return nil, fmt.Errorf("sql: unknown relation %q", ref.Name)
}

// joinItems combines the FROM item plans using the classified equijoin
// conditions, greedily picking the cheapest next join and the best
// physical operator for it (merge join when both inputs arrive ordered,
// index-nested-loop when the inner is a base table probed on its full
// primary key and the outer is small, hash join otherwise).
func (db *Database) joinItems(sel *SelectStmt, items []*plan, joins []joinEdge) (*plan, error) {
	n := len(items)
	if n == 1 {
		return items[0], nil
	}
	// Track, for each original item, its plan and whether it has been
	// absorbed into the current join tree; column offsets of absorbed
	// items within the current output.
	absorbed := make([]bool, n)
	offsets := make([]int, n)

	// Start with the smallest item.
	start := 0
	for i := 1; i < n; i++ {
		if items[i].rows < items[start].rows {
			start = i
		}
	}
	cur := items[start]
	absorbed[start] = true
	offsets[start] = 0
	remaining := n - 1

	for remaining > 0 {
		// Gather candidate items connected to the current tree.
		type cand struct {
			item  int
			lcols []int // positions in cur
			rcols []int // positions in items[item]
		}
		cands := make(map[int]*cand)
		for _, j := range joins {
			var inIdx, outIdx, inCol, outCol int
			switch {
			case absorbed[j.a] && !absorbed[j.b]:
				inIdx, inCol, outIdx, outCol = j.a, j.acol, j.b, j.bcol
			case absorbed[j.b] && !absorbed[j.a]:
				inIdx, inCol, outIdx, outCol = j.b, j.bcol, j.a, j.acol
			default:
				continue
			}
			c := cands[outIdx]
			if c == nil {
				c = &cand{item: outIdx}
				cands[outIdx] = c
			}
			c.lcols = append(c.lcols, offsets[inIdx]+inCol)
			c.rcols = append(c.rcols, outCol)
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("sql: query requires a cross product; unsupported")
		}
		// Pick the candidate with the smallest estimated join result,
		// breaking ties on the lower item index: cands is a map, and its
		// iteration order must not pick the join order.
		var best *cand
		var bestEst int64
		for _, c := range cands {
			est := estimateJoin(cur, items[c.item], c.rcols)
			if best == nil || est < bestEst || (est == bestEst && c.item < best.item) {
				best, bestEst = c, est
			}
		}
		t := items[best.item]
		// Canonicalize composite conditions in the inner's PK order when
		// possible (merge join and index probes need consistent order).
		lcols, rcols := best.lcols, best.rcols
		if perm := pkPermutation(t, rcols); perm != nil {
			nl := make([]int, len(lcols))
			nr := make([]int, len(rcols))
			for i, p := range perm {
				nl[i], nr[i] = lcols[p], rcols[p]
			}
			lcols, rcols = nl, nr
		}

		joined, err := db.physicalJoin(cur, t, lcols, rcols, bestEst)
		if err != nil {
			return nil, err
		}
		offsets[best.item] = cur.arity()
		absorbed[best.item] = true
		cur = joined
		remaining--
	}
	return cur, nil
}

// joinEdge is an equijoin condition between two FROM items.
type joinEdge struct {
	a, b       int
	acol, bcol int
}

// pkPermutation returns the permutation that reorders cols to the plan's
// sorted-prefix (PK) order, or nil if cols don't cover that prefix.
func pkPermutation(t *plan, cols []int) []int {
	if len(t.sorted) == 0 || len(cols) != len(t.sorted) {
		return nil
	}
	perm := make([]int, len(cols))
	for i, want := range t.sorted {
		found := -1
		for k, c := range cols {
			if c == want {
				found = k
				break
			}
		}
		if found < 0 {
			return nil
		}
		perm[i] = found
	}
	return perm
}

// estimateJoin estimates the output cardinality of joining cur with t.
func estimateJoin(cur, t *plan, rcols []int) int64 {
	if t.sortedCovers(rcols) && t.unique {
		return cur.rows
	}
	if cur.rows == 0 || t.rows == 0 {
		return 0
	}
	// Without key information, assume a 1/10 selectivity of the cross
	// product, capped to avoid overflow.
	est := cur.rows * t.rows / 10
	if est < cur.rows {
		est = cur.rows
	}
	return est
}

// physicalJoin picks and builds the physical join operator.
func (db *Database) physicalJoin(cur, t *plan, lcols, rcols []int, est int64) (*plan, error) {
	schema := append(append([]colInfo(nil), cur.schema...), t.schema...)
	blockElems := int64(db.ctx.Pool.Device().BlockElems())

	// Merge join: both ordered on the join columns.
	if cur.sortedCovers(lcols) && t.sortedCovers(rcols) {
		return &plan{
			it:     &relation.MergeJoin{Left: cur.it, Right: t.it, LeftCols: lcols, RightCols: rcols},
			schema: schema,
			sorted: lcols,
			unique: cur.unique && t.unique,
			rows:   est,
			desc:   fmt.Sprintf("MergeJoin(%s, %s)", cur.desc, t.desc),
		}, nil
	}

	// Index nested loop: t is a base table probed on its full PK.
	// Costs are in sequential-block units: a random block access (index
	// probe) is worth randPenalty sequential ones on 2009-era disks; the
	// index's upper levels are assumed cached, so one probe costs about
	// two random reads (leaf + heap page). A hash join scans both sides
	// sequentially and, if the build side exceeds working memory, spills
	// and re-reads both (Grace), tripling the traffic.
	if bt := db.baseTableOf(t); bt != nil && bt.Index != nil && coversPK(bt, t, rcols) {
		const randPenalty = 50
		probeCost := cur.rows * 2 * randPenalty
		spill := int64(1)
		if t.rows*int64(t.arity()) > db.ctx.WorkMem {
			spill = 3
		}
		hashCost := spill*(t.rows*int64(t.arity())/blockElems+1) +
			cur.rows*int64(cur.arity())/blockElems + 1
		if probeCost < hashCost {
			return &plan{
				it:     &relation.INLJoin{Outer: cur.it, Inner: &relation.IndexedTable{Heap: bt.Heap, Index: bt.Index}, OuterCols: lcols},
				schema: schema,
				sorted: cur.sorted, // outer order preserved
				unique: cur.unique && t.unique,
				rows:   est,
				desc:   fmt.Sprintf("INLJoin(%s, %s)", cur.desc, bt.Name),
			}, nil
		}
	}

	// Hash join, building the smaller side. Output must stay cur ++ t.
	if t.rows <= cur.rows {
		return &plan{
			it: &relation.HashJoin{
				Left: cur.it, Right: t.it,
				LeftCols: lcols, RightCols: rcols,
				LeftArity: cur.arity(), RightArity: t.arity(), Ctx: db.ctx,
			},
			schema: schema,
			rows:   est,
			desc:   fmt.Sprintf("HashJoin(%s, build=%s)", cur.desc, t.desc),
		}, nil
	}
	// Build on cur (smaller): swap inputs, then reorder columns back.
	inner := &relation.HashJoin{
		Left: t.it, Right: cur.it,
		LeftCols: rcols, RightCols: lcols,
		LeftArity: t.arity(), RightArity: cur.arity(), Ctx: db.ctx,
	}
	exprs := make([]relation.Expr, 0, len(schema))
	for i := 0; i < cur.arity(); i++ {
		exprs = append(exprs, relation.Col{Idx: t.arity() + i})
	}
	for i := 0; i < t.arity(); i++ {
		exprs = append(exprs, relation.Col{Idx: i})
	}
	return &plan{
		it:     &relation.Project{Input: inner, Exprs: exprs},
		schema: schema,
		rows:   est,
		desc:   fmt.Sprintf("HashJoin(%s, build=%s)", cur.desc, t.desc),
	}, nil
}

// baseTableOf returns the catalog table behind a plan if it is a plain
// unfiltered scan, else nil. A filtered scan cannot be replaced by index
// probes: the probe would skip the filter.
func (db *Database) baseTableOf(p *plan) *Table {
	d := p.desc
	if !strings.HasPrefix(d, "Scan(") || !strings.HasSuffix(d, ")") {
		return nil
	}
	name := strings.TrimSuffix(strings.TrimPrefix(d, "Scan("), ")")
	t, _ := db.Table(name)
	return t
}

// coversPK reports whether rcols (positions within p's schema) are
// exactly the base table's PK columns.
func coversPK(bt *Table, p *plan, rcols []int) bool {
	if len(rcols) != len(bt.PK) {
		return false
	}
	used := make(map[int]bool)
	for _, c := range rcols {
		used[c] = true
	}
	for _, c := range bt.PK {
		if !used[c] {
			return false
		}
	}
	return true
}
