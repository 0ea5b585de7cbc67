package agent

import "sync"

// petriNet implements the Fig. 4 triggering mechanism: one place per input
// parameter; a transition fires when every place holds at least one token,
// yielding the full input tuple for processor(). A token is the value a
// message carried.
type petriNet struct {
	mu     sync.Mutex
	params []string
	places map[string][]any
	policy TriggerPolicy
}

func newPetriNet(params []string, policy TriggerPolicy) *petriNet {
	places := make(map[string][]any, len(params))
	for _, p := range params {
		places[p] = nil
	}
	return &petriNet{params: params, places: places, policy: policy}
}

// offer deposits a token into the named place and returns zero or more
// ready input tuples according to the pairing policy. Unknown places are
// ignored (the message wasn't addressed to this agent's inputs).
func (pn *petriNet) offer(place string, tok any) []map[string]any {
	pn.mu.Lock()
	defer pn.mu.Unlock()
	if _, ok := pn.places[place]; !ok {
		return nil
	}
	switch pn.policy {
	case PairLatest:
		pn.places[place] = []any{tok}
	default:
		pn.places[place] = append(pn.places[place], tok)
	}

	var fired []map[string]any
	for pn.readyLocked() {
		tuple := make(map[string]any, len(pn.params))
		for _, p := range pn.params {
			tuple[p] = pn.places[p][0]
			if pn.policy != PairLatest {
				pn.places[p] = pn.places[p][1:]
			}
		}
		fired = append(fired, tuple)
		if pn.policy == PairLatest {
			// Latest fires once per arrival; tokens stay for reuse.
			break
		}
	}
	return fired
}

func (pn *petriNet) readyLocked() bool {
	for _, p := range pn.params {
		if len(pn.places[p]) == 0 {
			return false
		}
	}
	return true
}
