package main

import (
	"fmt"
	"math/rand"

	eve "repro"
	"repro/internal/scenario"
)

// opKind is the class of one generated operation.
type opKind uint8

const (
	opRead   opKind = iota // one routed ad-hoc query
	opWrite                // one ApplyUpdates batch (or one POST /update)
	opChange               // one capability change through the evolution session
)

func (k opKind) String() string {
	return [...]string{"read", "write", "change"}[k]
}

// op is one generated operation. The program under test receives exactly
// these inputs; nothing about an op depends on the clock.
type op struct {
	kind opKind
	// class labels the op for the op-class breakdown: the update-target
	// class (family, donor, spare) of a write, the change kind of a change.
	class   string
	sql     string
	updates []eve.Update
	change  eve.Change
	// verify marks a sampled read whose answer is re-derived from base
	// relations after the timed window.
	verify bool
}

// verifyEvery samples one read in this many for the base-route check.
const verifyEvery = 8

// world simulates the base-schema effects of generated changes and the
// tuples generated updates inserted, so every generated operation is valid
// at its position: renamed attributes are read under their new names,
// deleted tuples exist, and inserted tuples match the current arity.
type world struct {
	rng      *rand.Rand
	attrs    map[string][]string // live relation -> current attribute names
	refs     map[string][]string // family relation -> attributes its views reference
	families []string
	donors   []string
	spares   []string
	pool     map[string][]eve.Tuple // tuples this stream inserted, still deletable
	fresh    int                    // counter for fresh attribute and relation names
	tuples   int                    // counter for fresh tuples
	updates  int                    // global update index: fixes target and delete mix
}

// newWorld mirrors the pre-history state of a scenario.Churn space: family
// relations W1..Wf whose views reference A1..Aw, donors Df_d, spares SPi,
// attribute lists as BuildSpace creates them.
func newWorld(p scenario.ChurnParams, seed int64) (*world, error) {
	h, err := scenario.Churn(p)
	if err != nil {
		return nil, err
	}
	sp, err := h.BuildSpace()
	if err != nil {
		return nil, err
	}
	w := &world{
		rng:   rand.New(rand.NewSource(seed)),
		attrs: map[string][]string{},
		refs:  map[string][]string{},
		pool:  map[string][]eve.Tuple{},
	}
	for _, name := range sp.RelationNames() {
		w.attrs[name] = append([]string(nil), sp.Relation(name).Schema().Names()...)
	}
	for f := 1; f <= p.Families; f++ {
		fam := fmt.Sprintf("W%d", f)
		w.families = append(w.families, fam)
		for _, a := range w.attrs[fam] {
			if a != "K" {
				w.refs[fam] = append(w.refs[fam], a)
			}
		}
		for d := 1; d <= p.Donors; d++ {
			w.donors = append(w.donors, fmt.Sprintf("D%d_%d", f, d))
		}
	}
	for i := 1; i <= p.Spares; i++ {
		w.spares = append(w.spares, fmt.Sprintf("SP%d", i))
	}
	return w, nil
}

func (w *world) pick(list []string) string { return list[w.rng.Intn(len(list))] }

func (w *world) freshName(prefix string) string {
	w.fresh++
	return fmt.Sprintf("%s%d", prefix, w.fresh)
}

// read is the ad-hoc query of the in-process workloads over family fam:
// its first two view-referenced attributes, filtered on the first.
func (w *world) read(fam string, c int) string {
	r := w.refs[fam]
	return fmt.Sprintf("SELECT %s.%s, %s.%s FROM %s WHERE %s.%s > %d", fam, r[0], fam, r[1], fam, fam, r[0], c)
}

// update generates the next update against rel. The insert/delete choice
// follows the global update index, so every seed gets the same mix: 7 of
// every 20 updates delete a tuple this stream inserted into rel (when one
// is left), the rest insert fresh tuples clear of Populate's fill.
func (w *world) update(rel string) eve.Update {
	g := w.updates
	w.updates++
	if g%20 < 7 && len(w.pool[rel]) > 0 {
		i := w.rng.Intn(len(w.pool[rel]))
		t := w.pool[rel][i]
		w.pool[rel] = append(w.pool[rel][:i], w.pool[rel][i+1:]...)
		return eve.DeleteTuple(rel, t)
	}
	w.tuples++
	t := make(eve.Tuple, len(w.attrs[rel]))
	for j := range t {
		t[j] = eve.Int(int64(10_000_000 + w.tuples*131 + j))
	}
	w.pool[rel] = append(w.pool[rel], t)
	return eve.InsertTuple(rel, t)
}

func removeName(list []string, s string) []string {
	out := list[:0]
	for _, v := range list {
		if v != s {
			out = append(out, v)
		}
	}
	return out
}

func replaceName(list []string, from, to string) {
	for i, v := range list {
		if v == from {
			list[i] = to
		}
	}
}

// renameAttr renames one attribute of rel; arity and stored tuples stay.
func (w *world) renameAttr(rel string) eve.Change {
	attr := w.pick(w.attrs[rel])
	next := w.freshName("N")
	replaceName(w.attrs[rel], attr, next)
	if r, ok := w.refs[rel]; ok {
		replaceName(r, attr, next)
	}
	return eve.RenameAttribute(rel, attr, next)
}

// renameRefAttr renames one view-referenced attribute of a family.
func (w *world) renameRefAttr(fam string) eve.Change {
	attr := w.pick(w.refs[fam])
	next := w.freshName("N")
	replaceName(w.attrs[fam], attr, next)
	replaceName(w.refs[fam], attr, next)
	return eve.RenameAttribute(fam, attr, next)
}

// deleteAttr deletes attr from rel; the stored tuples change shape, so
// none of them is deletable any more.
func (w *world) deleteAttr(rel, attr string) eve.Change {
	w.attrs[rel] = removeName(w.attrs[rel], attr)
	if r, ok := w.refs[rel]; ok {
		w.refs[rel] = removeName(r, attr)
	}
	delete(w.pool, rel)
	return eve.DeleteAttribute(rel, attr)
}

func (w *world) addAttr(rel string) eve.Change {
	attr := w.freshName("X")
	w.attrs[rel] = append(w.attrs[rel], attr)
	delete(w.pool, rel)
	return eve.AddAttribute(rel, attr, eve.TypeInt)
}

func (w *world) renameRelation(i int) eve.Change {
	fam := w.families[i]
	next := fam + w.freshName("_r")
	w.attrs[next], w.refs[next], w.pool[next] = w.attrs[fam], w.refs[fam], w.pool[fam]
	delete(w.attrs, fam)
	delete(w.refs, fam)
	delete(w.pool, fam)
	w.families[i] = next
	return eve.RenameRelation(fam, next)
}

// routeAdhocParams is route-adhoc's space: many view families so route
// matching over all views dominates a read, small extents so execution
// and maintenance stay cheap next to it.
var routeAdhocParams = scenario.ChurnParams{
	Families: 48, TwinsPerFamily: 2, Width: 6, Donors: 2, Spares: 4, SpareAttrs: 4,
	Changes: 1, Seed: 1,
}

const routeAdhocRows = 30

// genRouteAdhoc builds one round of route-adhoc: every 8th op is a write,
// the rest are reads. Writes cycle by their index: 4 of 8 are 8-update
// batches into one relation (6 of 8 a family, 1 a donor, 1 a spare, so
// the write median sits inside the family mode), 3 of 8 rename a spare
// attribute (a change the footprint check skips), 1 of 8 renames a
// view-referenced family attribute (synchronize → rank → adopt over the
// family's twins). Every read of a round is distinct, so the route cache
// never hits.
func genRouteAdhoc(seed int64, n int) ([]op, error) {
	w, err := newWorld(routeAdhocParams, seed)
	if err != nil {
		return nil, err
	}
	ops := make([]op, 0, n)
	seen := map[string]bool{}
	reads, writes, batches := 0, 0, 0
	for i := 0; i < n; i++ {
		if i%8 != 7 {
			var sql string
			for sql == "" || seen[sql] {
				sql = w.read(w.pick(w.families), w.rng.Intn(7*routeAdhocRows))
			}
			seen[sql] = true
			ops = append(ops, op{kind: opRead, sql: sql, verify: reads%verifyEvery == 0})
			reads++
			continue
		}
		switch wi := writes; {
		case wi%8 == 7:
			c := w.renameRefAttr(w.pick(w.families))
			ops = append(ops, op{kind: opChange, class: "family_" + c.Kind.String(), change: c})
		case wi%2 == 1:
			c := w.renameAttr(w.pick(w.spares))
			ops = append(ops, op{kind: opChange, class: "spare_" + c.Kind.String(), change: c})
		default:
			rel, class := w.pick(w.families), "family"
			switch batches % 8 {
			case 3:
				rel, class = w.pick(w.donors), "donor"
			case 7:
				rel, class = w.pick(w.spares), "spare"
			}
			batches++
			ops = append(ops, op{kind: opWrite, class: class, updates: w.batch(rel, 8)})
		}
		writes++
	}
	return ops, nil
}

// batch generates n updates against rel.
func (w *world) batch(rel string, n int) []eve.Update {
	out := make([]eve.Update, n)
	for i := range out {
		out[i] = w.update(rel)
	}
	return out
}

// evolveReplayParams is evolve-replay's space: scenario.DefaultChurnParams'
// shape (2 families of 8 twin views over 10 attributes, 2 donors each, 6
// spares) with replaceable views, so family deletes can be salvaged by
// donor substitution. Only the space and views are used; the stream is
// genEvolveReplay's.
var evolveReplayParams = scenario.ChurnParams{
	Families: 2, TwinsPerFamily: 8, Width: 10, Donors: 2, Spares: 6, SpareAttrs: 5,
	Changes: 1, Seed: 1, ReplaceableViews: true,
}

const evolveReplayRows = 10_000

// genEvolveReplay builds one round of evolve-replay: n/2 events, each
// followed by one read. Events follow scenario.UpdateChurn's default mix,
// fixed by index instead of drawn: one event in three is an 8-update batch
// (7 of 10 updates into families, the rest alternating donors and spares,
// 35% deletes), the others are capability changes cycling through 16
// slots — 1 family attribute delete, 1 family rename, 2 donor changes, 12
// spare changes. Deletes hit the first family, whose views the first one
// moves onto a donor by substitution; renames hit the last family, whose
// views stay put, and every read is a view-residual query over that
// family's 10k-row extent. Other targets rotate; the seed picks
// attributes, deleted tuples and read constants. So every seed
// synchronizes the same changes, and the batches that first touch freshly
// adopted views (which rebuild their maintenance state) sit at the same
// positions.
func genEvolveReplay(seed int64, n int) ([]op, error) {
	w, err := newWorld(evolveReplayParams, seed)
	if err != nil {
		return nil, err
	}
	ops := make([]op, 0, n)
	var changes, famRenames, donorChanges, spareChanges, famUpdates, otherUpdates, reads int
	for e := 0; e < n/2; e++ {
		if e%3 == 2 {
			ups := make([]eve.Update, 8)
			for i := range ups {
				var rel string
				switch {
				case w.updates%10 < 7:
					rel = w.families[famUpdates%len(w.families)]
					famUpdates++
				case otherUpdates%2 == 0:
					rel = w.donors[otherUpdates/2%len(w.donors)]
					otherUpdates++
				default:
					rel = w.spares[otherUpdates/2%len(w.spares)]
					otherUpdates++
				}
				ups[i] = w.update(rel)
			}
			ops = append(ops, op{kind: opWrite, class: "family+other", updates: ups})
		} else {
			var c eve.Change
			target := "spare"
			switch slot := changes % 16; {
			case slot == 5:
				target = "family"
				c = w.familyDelete(w.families[0])
			case slot == 13:
				target = "family"
				last := len(w.families) - 1
				if famRenames%5 == 4 {
					c = w.renameRelation(last)
				} else {
					c = w.renameRefAttr(w.families[last])
				}
				famRenames++
			case slot == 2 || slot == 9:
				target = "donor"
				d := w.donors[donorChanges%len(w.donors)]
				if donorChanges%2 == 1 && len(w.attrs[d]) > 3 {
					c = w.deleteAttr(d, w.pick(w.attrs[d]))
				} else {
					c = w.renameAttr(d)
				}
				donorChanges++
			default:
				s := w.spares[spareChanges%len(w.spares)]
				switch {
				case spareChanges%3 == 0:
					c = w.renameAttr(s)
				case spareChanges%3 == 2 && len(w.attrs[s]) > 1:
					c = w.deleteAttr(s, w.pick(w.attrs[s]))
				default:
					c = w.addAttr(s)
				}
				spareChanges++
			}
			changes++
			ops = append(ops, op{kind: opChange, class: target + "_" + c.Kind.String(), change: c})
		}
		fam := w.families[len(w.families)-1]
		ops = append(ops, op{kind: opRead, sql: w.read(fam, w.rng.Intn(7*evolveReplayRows)), verify: reads%verifyEvery == 0})
		reads++
	}
	return ops, nil
}

// familyDelete deletes a view-referenced attribute of fam while it keeps
// at least two (the reads project two), else renames one.
func (w *world) familyDelete(fam string) eve.Change {
	if len(w.refs[fam]) <= 2 {
		return w.renameRefAttr(fam)
	}
	return w.deleteAttr(fam, w.pick(w.refs[fam]))
}
