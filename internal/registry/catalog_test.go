package registry

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"blueprint/internal/vectors"
)

// corpusEntry is one registered name and description.
type corpusEntry struct{ name, desc string }

// refHit is a search result reduced to what both registries share.
type refHit struct {
	name  string
	score float64
}

// catalogUnderTest drives one registry through the operations the two have
// in common, so one corpus and one reference can check both.
type catalogUnderTest struct {
	kind                   string
	errExists, errNotFound error
	text                   func(name, desc string) string // the registry's searchText for such an entry
	register               func(name, desc string) error
	update                 func(name, desc string) error
	get                    func(name string) (stored string, version int, err error)
	list                   func() []string
	keyword, vector, find  func(query string, k int) []refHit
	onChange               func(func(string))
	onMutation             func(func(putName string))
	durable                Durable
}

func agentsUnderTest() catalogUnderTest {
	r := NewAgentRegistry()
	hits := func(hs []AgentHit) []refHit {
		out := make([]refHit, len(hs))
		for i, h := range hs {
			out[i] = refHit{h.Spec.Name, h.Score}
		}
		return out
	}
	return catalogUnderTest{
		kind: "agents", errExists: ErrAgentExists, errNotFound: ErrAgentNotFound,
		text:     func(name, desc string) string { return AgentSpec{Name: name, Description: desc}.searchText() },
		register: func(name, desc string) error { return r.Register(AgentSpec{Name: name, Description: desc}) },
		update:   func(name, desc string) error { return r.Update(AgentSpec{Name: name, Description: desc}) },
		get: func(name string) (string, int, error) {
			s, err := r.Get(name)
			return s.Name, s.Version, err
		},
		list: func() []string {
			var out []string
			for _, s := range r.List() {
				out = append(out, s.Name)
			}
			return out
		},
		keyword:    func(q string, k int) []refHit { return hits(r.SearchKeyword(q, k)) },
		vector:     func(q string, k int) []refHit { return hits(r.SearchVector(q, k)) },
		find:       func(q string, k int) []refHit { return hits(r.FindForTask(q, k)) },
		onChange:   r.OnChange,
		onMutation: func(fn func(string)) { r.SetMutationHook(func(m AgentMutation) { fn(m.Put.Name) }) },
		durable:    Durable{Agents: r, Data: NewDataRegistry()},
	}
}

func assetsUnderTest() catalogUnderTest {
	r := NewDataRegistry()
	asset := func(name, desc string) DataAsset {
		return DataAsset{Name: name, Kind: KindDocument, Level: LevelCollection, Description: desc}
	}
	hits := func(hs []AssetHit) []refHit {
		out := make([]refHit, len(hs))
		for i, h := range hs {
			out[i] = refHit{h.Asset.Name, h.Score}
		}
		return out
	}
	return catalogUnderTest{
		kind: "assets", errExists: ErrAssetExists, errNotFound: ErrAssetNotFound,
		text:     func(name, desc string) string { return asset(name, desc).searchText() },
		register: func(name, desc string) error { return r.Register(asset(name, desc)) },
		update:   func(name, desc string) error { return r.Update(asset(name, desc)) },
		get: func(name string) (string, int, error) {
			a, err := r.Get(name)
			return a.Name, a.Version, err
		},
		list: func() []string {
			var out []string
			for _, a := range r.List("", "") {
				out = append(out, a.Name)
			}
			return out
		},
		keyword:    func(q string, k int) []refHit { return hits(r.SearchKeyword(q, k)) },
		vector:     func(q string, k int) []refHit { return hits(r.SearchVector(q, k)) },
		find:       func(q string, k int) []refHit { return hits(r.Discover(q, k)) },
		onChange:   r.OnChange,
		onMutation: func(fn func(string)) { r.SetMutationHook(func(m AssetMutation) { fn(m.Put.Name) }) },
		durable:    Durable{Agents: NewAgentRegistry(), Data: r},
	}
}

// Both registries, fed the same seeded corpus, answer as a brute-force
// reading of the contract does: keyword search ranks the entries containing
// every query token by occurrence count with ties in registration order,
// vector search ranks by cosine to the query's embedding with ties by key,
// the planner/discovery entry point is vector search falling back to
// keyword, names are case-insensitive, a taken name is refused, a mutation
// reaches the durability hook before the change hooks in the order they were
// added, and a snapshot restores to the same catalog.
func TestBothRegistriesMatchBruteForce(t *testing.T) {
	vocab := strings.Fields("rank match summarize profile resume salary city title skill job applicant graph table index query plan embed route score stream")
	rng := rand.New(rand.NewSource(7))
	corpus := make([]corpusEntry, 40)
	for i := range corpus {
		words := make([]string, 3+rng.Intn(6))
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		corpus[i] = corpusEntry{fmt.Sprintf("Entry%02d", i), strings.Join(words, " ")}
	}
	queries := []string{"rank", "salary city", "job applicant profile", "graph graph", "stream of scores", "nosuchword", "rank nosuchword", ""}
	for i := 0; i < 12; i++ {
		queries = append(queries, vocab[rng.Intn(len(vocab))]+" "+vocab[rng.Intn(len(vocab))])
	}

	for _, newUnderTest := range []func() catalogUnderTest{agentsUnderTest, assetsUnderTest} {
		c := newUnderTest()
		t.Run(c.kind, func(t *testing.T) {
			for _, e := range corpus {
				if err := c.register(e.name, e.desc); err != nil {
					t.Fatal(err)
				}
			}
			corpus := slices.Clone(corpus)
			names := func() []string {
				out := make([]string, len(corpus))
				for i, e := range corpus {
					out[i] = e.name
				}
				return out
			}
			if got := c.list(); !slices.Equal(got, names()) {
				t.Fatalf("list = %v, want registration order", got)
			}

			// Names: case-insensitive lookup, the stored casing returned; a
			// taken name refused whatever its casing; an empty one refused.
			for _, name := range []string{"entry07", "ENTRY07", "Entry07"} {
				if stored, version, err := c.get(name); err != nil || stored != "Entry07" || version != 1 {
					t.Fatalf("get(%q) = %q v%d, %v", name, stored, version, err)
				}
			}
			if _, _, err := c.get("Entry99"); !errors.Is(err, c.errNotFound) {
				t.Fatalf("get of an unknown name: %v", err)
			}
			if err := c.register("ENTRY07", "again"); !errors.Is(err, c.errExists) {
				t.Fatalf("duplicate register: %v", err)
			}
			if err := c.register("", "anonymous"); err == nil || !strings.Contains(err.Error(), "name required") {
				t.Fatalf("register without a name: %v", err)
			}
			if got := c.list(); !slices.Equal(got, names()) {
				t.Fatalf("refused registrations changed the list: %v", got)
			}

			checkSearches := func(t *testing.T, c catalogUnderTest) {
				t.Helper()
				texts := make([]string, len(corpus))
				for i, e := range corpus {
					texts[i] = c.text(e.name, e.desc)
				}
				for _, q := range queries {
					for _, k := range []int{1, 3, 10, len(corpus) + 5} {
						wantKW := refKeyword(texts, names(), q, k)
						wantVec := refVector(texts, names(), q, k)
						wantFind := wantVec
						if len(wantFind) == 0 {
							wantFind = wantKW
						}
						for _, check := range []struct {
							what      string
							got, want []refHit
						}{
							{"keyword", c.keyword(q, k), wantKW},
							{"vector", c.vector(q, k), wantVec},
							{"find", c.find(q, k), wantFind},
						} {
							if !slices.Equal(check.got, check.want) {
								t.Fatalf("%s search %q k=%d:\n got %v\nwant %v", check.what, q, k, check.got, check.want)
							}
						}
					}
				}
			}
			checkSearches(t, c)

			// Hooks: the mutation hook first, then the change hooks as added.
			var fired []string
			c.onMutation(func(name string) { fired = append(fired, "logged "+name) })
			c.onChange(func(name string) { fired = append(fired, "first "+name) })
			c.onChange(func(name string) { fired = append(fired, "second "+name) })
			corpus[3] = corpusEntry{"entry03", corpus[3].desc + " rank rank"} // an update stores the name as given
			if err := c.update("entry03", corpus[3].desc); err != nil {
				t.Fatal(err)
			}
			if want := []string{"logged entry03", "first entry03", "second entry03"}; !slices.Equal(fired, want) {
				t.Fatalf("hooks fired %v, want %v", fired, want)
			}
			if err := c.update("Entry99", "x"); !errors.Is(err, c.errNotFound) || len(fired) != 3 {
				t.Fatalf("update of an unknown name: %v, hooks fired %v", err, fired)
			}
			if _, version, _ := c.get("Entry03"); version != 2 {
				t.Fatalf("updated entry is at version %d, want 2", version)
			}
			// Update keeps the entry's place in the order and re-embeds it.
			if got := c.list(); !slices.Equal(got, names()) {
				t.Fatalf("list after update = %v", got)
			}
			checkSearches(t, c)

			// Snapshot -> restore into empty registries: the same catalog, no
			// hook fired.
			var buf bytes.Buffer
			if err := c.durable.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			restored := newUnderTest()
			restored.onMutation(func(name string) { t.Errorf("restore logged %s", name) })
			restored.onChange(func(name string) { t.Errorf("restore notified %s", name) })
			if err := restored.durable.Restore(&buf); err != nil {
				t.Fatal(err)
			}
			if got := restored.list(); !slices.Equal(got, names()) {
				t.Fatalf("restored list = %v", got)
			}
			if _, version, err := restored.get("ENTRY03"); err != nil || version != 2 {
				t.Fatalf("restored Entry03 = v%d, %v", version, err)
			}
			checkSearches(t, restored)
		})
	}
}

// refKeyword is keyword search read off its contract.
func refKeyword(texts, names []string, query string, k int) []refHit {
	toks := vectors.Tokenize(query)
	var hits []refHit
	for i, text := range texts {
		text = strings.ToLower(text)
		total, all := 0, len(toks) > 0
		for _, tok := range toks {
			n := strings.Count(text, tok)
			all = all && n > 0
			total += n
		}
		if all {
			hits = append(hits, refHit{names[i], float64(total)})
		}
	}
	sort.SliceStable(hits, func(i, j int) bool { return hits[i].score > hits[j].score })
	return hits[:min(k, len(hits))]
}

// refVector scores every entry against the query and sorts them all.
func refVector(texts, names []string, query string, k int) []refHit {
	e := vectors.NewEmbedder(vectors.DefaultDim)
	qv := e.Embed(query)
	hits := make([]refHit, len(texts))
	for i, text := range texts {
		hits[i] = refHit{names[i], vectors.Cosine(qv, e.Embed(text))}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].score != hits[j].score {
			return hits[i].score > hits[j].score
		}
		return strings.ToLower(hits[i].name) < strings.ToLower(hits[j].name)
	})
	return hits[:min(k, len(hits))]
}
