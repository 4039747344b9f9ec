// Package lockorder enforces a consistent mutex acquisition order
// across the repo's concurrent packages. It is the suite's only
// inter-procedural analyzer: each Run pass records, per function, which
// lock classes the function acquires and which functions it calls with
// locks held; the End hook closes the call graph into a may-acquire
// relation, builds the program-wide acquisition graph over lock
// *classes* (declaring package + type + field, shared by every instance
// — see internal/analysis/lockset), and reports every edge that sits on
// a cycle. Two goroutines that take the same pair of locks in opposite
// orders deadlock the first time their critical sections overlap;
// acyclic acquisition order makes that impossible by construction.
//
// An edge A -> B means "some path acquires class B while an instance of
// class A is held" — either directly (B's Lock appears under A's), or
// through a call chain (a function called under A's lock may acquire B,
// transitively). Reports anchor at the acquisition or call site closing
// the cycle, naming the callee for indirect edges.
//
// Deliberate simplifications: the graph is per lock class, so two
// instances of one class are indistinguishable (self-edges are not
// reported — ordering instances of one type needs runtime identity);
// function literals are not attributed to their creator (a closure's
// locks are its own); calls through interfaces or func values are
// invisible. Each narrows coverage, none produces false cycles.
//
// A justified //lint:lockorder directive on an edge's reported line
// suppresses that edge; a cycle is silenced only when every edge on it
// is either fixed or justified.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis/lint"
	"repro/internal/analysis/lockset"
)

// TargetPackages are the concurrent packages whose lock classes
// participate in the program-wide acquisition order.
var TargetPackages = []string{
	"repro/internal/simcache",
	"repro/internal/sched",
	"repro/internal/blobstore",
	"repro/internal/resultstore",
	"repro/internal/tracestore",
	"repro/internal/experiments",
	"repro/cmd/smtsimd",
}

// Analyzer is the lockorder check.
var Analyzer = &lint.Analyzer{
	Name: "lockorder",
	Doc: "flag cyclic mutex acquisition orders across the concurrent packages " +
		"(lock class A taken under B on one path and B under A on another deadlocks when the paths overlap)",
	Run: run,
	End: end,
}

// An acquisition is one Lock/RLock of a classed mutex with the lock
// classes held at that point.
type acquisition struct {
	class string
	held  []string
	pos   token.Pos
}

// A callsite is one static call with the lock classes held at it.
type callsite struct {
	callee string
	held   []string
	pos    token.Pos
}

// funcFacts is what one function contributes to the global graph.
type funcFacts struct {
	acquires []acquisition
	calls    []callsite
}

// state is the whole-program view accumulated in Pass.Suite.
type state struct {
	funcs map[string]*funcFacts
}

func suiteState(slot *any) *state {
	s, _ := (*slot).(*state)
	if s == nil {
		s = &state{funcs: map[string]*funcFacts{}}
		*slot = s
	}
	return s
}

func run(pass *lint.Pass) error {
	if !lint.PathIn(pass.Pkg.Path(), TargetPackages) {
		return nil
	}
	s := suiteState(pass.Suite)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			facts := collect(pass.TypesInfo, fd.Body)
			if facts != nil {
				s.funcs[funcID(fn)] = facts
			}
		}
	}
	return nil
}

// funcID names a function stably across packages and instantiations.
func funcID(fn *types.Func) string {
	return fn.Origin().FullName()
}

// collect solves the lock-state flow for one function body and records
// its classed acquisitions and its calls-under-lock. Returns nil when
// the function neither locks nor calls anything while locked.
func collect(info *types.Info, body *ast.BlockStmt) *funcFacts {
	flow := lockset.NewFlow(info)
	g := lint.NewCFG(body)
	in, _ := lint.Forward[lockset.Fact](g, flow)

	facts := &funcFacts{}
	for _, b := range g.Blocks {
		fact, ok := in[b]
		if !ok {
			continue // unreachable
		}
		fact = cloneFact(fact)
		for _, n := range b.Nodes {
			if _, isDefer := n.(*ast.DeferStmt); isDefer {
				// A deferred call runs at function exit, not here; deferred
				// unlocks do not change the held set mid-function either.
				continue
			}
			for _, call := range lockset.Calls(n) {
				if op, isMutex := lockset.MutexOp(info, call); isMutex && op.Path != "" {
					key := op.Kind.Key(op.Path)
					if op.Kind.Acquires() {
						if op.Class != "" {
							facts.acquires = append(facts.acquires, acquisition{
								class: op.Class,
								held:  heldClasses(flow, fact, op.Class),
								pos:   call.Pos(),
							})
						}
						if _, held := fact.Held[key]; !held {
							fact.Held[key] = lockset.Hold{Pos: call.Pos()}
						}
					} else {
						delete(fact.Held, key)
					}
					continue
				}
				if fn := lint.FuncObj(info, call); fn != nil {
					// Record the call even with no locks held: the may-acquire
					// fixpoint needs every call edge so a lock-free intermediate
					// function still propagates its callees' acquisitions.
					facts.calls = append(facts.calls, callsite{
						callee: funcID(fn),
						held:   heldClasses(flow, fact, ""),
						pos:    call.Pos(),
					})
				}
			}
		}
	}
	if len(facts.acquires) == 0 && len(facts.calls) == 0 {
		return nil
	}
	return facts
}

// heldClasses maps the held keys of a fact to their sorted, distinct
// lock classes, excluding the class being acquired (self-edges are out
// of scope — see the package doc).
func heldClasses(flow *lockset.Flow, fact lockset.Fact, acquiring string) []string {
	seen := map[string]bool{}
	for key := range fact.Held {
		cls := flow.Meta[key].Class
		if cls != "" && cls != acquiring {
			seen[cls] = true
		}
	}
	if len(seen) == 0 {
		return nil
	}
	out := make([]string, 0, len(seen))
	for cls := range seen {
		out = append(out, cls)
	}
	sort.Strings(out)
	return out
}

func cloneFact(f lockset.Fact) lockset.Fact {
	out := lockset.Fact{Held: map[string]lockset.Hold{}, Deferred: map[string]bool{}}
	for k, v := range f.Held {
		out.Held[k] = v
	}
	for k := range f.Deferred {
		out.Deferred[k] = true
	}
	return out
}

// edge is one acquisition-order constraint: to is acquired while from
// is held, at pos (via the named callee when indirect).
type edge struct {
	from, to string
	pos      token.Pos
	via      string
}

func end(pass *lint.EndPass) error {
	s := suiteState(pass.Suite)
	if len(s.funcs) == 0 {
		return nil
	}
	ids := make([]string, 0, len(s.funcs))
	for id := range s.funcs {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	// Close the call graph: may[f] is every class f can acquire, directly
	// or through the functions it calls (with or without locks held —
	// the callee's own callees still count).
	may := map[string]map[string]bool{}
	for _, id := range ids {
		may[id] = map[string]bool{}
		for _, a := range s.funcs[id].acquires {
			may[id][a.class] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, id := range ids {
			for _, c := range s.funcs[id].calls {
				callee, known := may[c.callee]
				if !known {
					continue
				}
				for cls := range callee {
					if !may[id][cls] {
						may[id][cls] = true
						changed = true
					}
				}
			}
		}
	}

	// Build the class graph. One representative edge per (from, to) pair,
	// keeping the earliest position for stable reports.
	edges := map[[2]string]edge{}
	addEdge := func(e edge) {
		k := [2]string{e.from, e.to}
		if old, ok := edges[k]; !ok || e.pos < old.pos {
			edges[k] = e
		}
	}
	for _, id := range ids {
		facts := s.funcs[id]
		for _, a := range facts.acquires {
			for _, h := range a.held {
				addEdge(edge{from: h, to: a.class, pos: a.pos})
			}
		}
		for _, c := range facts.calls {
			for cls := range may[c.callee] {
				for _, h := range c.held {
					if h != cls {
						addEdge(edge{from: h, to: cls, pos: c.pos, via: c.callee})
					}
				}
			}
		}
	}

	// Report every edge inside a strongly connected component: those are
	// exactly the edges on some acquisition cycle.
	cyclic := cyclicNodes(edges)
	var bad []edge
	for _, e := range edges {
		if cyclic[e.from] != 0 && cyclic[e.from] == cyclic[e.to] {
			bad = append(bad, e)
		}
	}
	sort.Slice(bad, func(i, j int) bool {
		if bad[i].from != bad[j].from {
			return bad[i].from < bad[j].from
		}
		return bad[i].to < bad[j].to
	})
	for _, e := range bad {
		if e.via != "" {
			pass.Reportf(e.pos,
				"%s is held while acquiring %s (via call to %s), closing a lock-order cycle; acquire these locks in one global order",
				e.from, e.to, e.via)
		} else {
			pass.Reportf(e.pos,
				"%s is held while acquiring %s, closing a lock-order cycle; acquire these locks in one global order",
				e.from, e.to)
		}
	}
	return nil
}

// cyclicNodes assigns every class node on a multi-node strongly
// connected component a nonzero component id (Tarjan, iterative over
// sorted nodes for determinism).
func cyclicNodes(edges map[[2]string]edge) map[string]int {
	succs := map[string][]string{}
	nodeSet := map[string]bool{}
	for k := range edges {
		succs[k[0]] = append(succs[k[0]], k[1])
		nodeSet[k[0]], nodeSet[k[1]] = true, true
	}
	nodes := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		sort.Strings(succs[n])
	}

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	comp := map[string]int{}
	next, compID := 1, 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succs[v] {
			if index[w] == 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var members []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				members = append(members, w)
				if w == v {
					break
				}
			}
			if len(members) > 1 {
				compID++
				for _, m := range members {
					comp[m] = compID
				}
			}
		}
	}
	for _, n := range nodes {
		if index[n] == 0 {
			strongconnect(n)
		}
	}
	return comp
}
