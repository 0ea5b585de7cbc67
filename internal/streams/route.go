package streams

import "slices"

// The routing index. A subscription made by Subscribe is filed under exactly
// one class, the most selective its filter allows: every stream named in
// Filter.Streams, else its Filter.Session scope, else the unscoped set. One
// made by SubscribeScoped — a deployed agent's, serving every session the
// agent has joined — is filed under each session scope it has joined, the way
// a stream-class one is filed under each stream it names, and under none
// until the first Join: there the filing is the scope, and its filter names
// no session. A message can only match subscriptions filed under its own
// stream, under its session scope or an ancestor of it, or unscoped, so
// Append looks nowhere else — its cost follows the subscriptions that could
// receive the message, not every live subscription in the store nor every
// session a deployment serves. The index only narrows: Filter.Matches still
// decides every candidate.

// fileLocked adds sub to the index; caller holds s.mu.
func (s *Store) fileLocked(sub *Subscription) {
	f := &sub.filter
	switch {
	case sub.scopes != nil:
		s.scoped = append(s.scoped, sub) // into bySession scope by scope, as it joins
	case len(f.Streams) > 0:
		for i, id := range f.Streams {
			if !slices.Contains(f.Streams[:i], id) { // a repeated id is filed once
				s.byStream[id] = append(s.byStream[id], sub)
			}
		}
	case f.Session != "":
		s.bySession[f.Session] = append(s.bySession[f.Session], sub)
	default:
		s.unscoped = append(s.unscoped, sub)
	}
	sub.filed = true
	s.stats.subscriptions.Add(1)
}

// unfileLocked removes sub from the index, dropping buckets it leaves
// empty; caller holds s.mu. Unfiling twice is a no-op.
func (s *Store) unfileLocked(sub *Subscription) {
	if !sub.filed {
		return
	}
	sub.filed = false
	s.stats.subscriptions.Add(-1)
	f := &sub.filter
	switch {
	case sub.scopes != nil:
		s.scoped = without(s.scoped, sub)
		for scope := range sub.scopes {
			unfileFrom(s.bySession, scope, sub)
		}
		clear(sub.scopes)
	case len(f.Streams) > 0:
		for _, id := range f.Streams {
			unfileFrom(s.byStream, id, sub)
		}
	case f.Session != "":
		unfileFrom(s.bySession, f.Session, sub)
	default:
		s.unscoped = without(s.unscoped, sub)
	}
}

// unfileAllLocked empties the index and returns every subscription it held,
// each once; caller holds s.mu.
func (s *Store) unfileAllLocked() []*Subscription {
	var all []*Subscription
	take := func(bucket []*Subscription) {
		for _, sub := range bucket {
			if sub.filed { // filed under several streams or scopes: taken at the first
				sub.filed = false
				all = append(all, sub)
			}
		}
	}
	for _, bucket := range s.byStream {
		take(bucket)
	}
	for _, bucket := range s.bySession {
		take(bucket)
	}
	take(s.unscoped)
	take(s.scoped) // those that have joined no scope are in no bucket
	clear(s.byStream)
	clear(s.bySession)
	s.unscoped, s.scoped = nil, nil
	s.stats.subscriptions.Store(0)
	return all
}

// routeLocked appends to out the subscriptions msg must be delivered to;
// caller holds s.mu. The classes are disjoint and a bucket holds a
// subscription once, so each appears at most once — but for one that joined
// both a scope and an ancestor of it, which the ancestor's bucket skips.
func (s *Store) routeLocked(msg *Message, out []*Subscription) []*Subscription {
	out = appendMatching(out, s.byStream[msg.Stream], msg)
	if scope := msg.Session; len(s.bySession) > 0 {
		inner := len(out)
		out = appendMatching(out, s.bySession[scope], msg)
		for i := len(scope) - 1; i > 0; i-- {
			if scope[i] != ':' {
				continue
			}
			// scope[:i] is an ancestor scope (scopeContains).
			for _, sub := range s.bySession[scope[:i]] {
				if sub.filter.Matches(msg) && !(sub.scopes != nil && slices.Contains(out[inner:], sub)) {
					out = append(out, sub)
				}
			}
		}
	}
	return appendMatching(out, s.unscoped, msg)
}

// joinLocked files a scoped subscription under one more session scope and
// leaveLocked takes it out again; caller holds s.mu. Joining a scope twice,
// leaving one never joined and either on a subscription no longer live are
// no-ops.
func (s *Store) joinLocked(sub *Subscription, scope string) {
	if _, joined := sub.scopes[scope]; joined || !sub.filed {
		return
	}
	sub.scopes[scope] = struct{}{}
	s.bySession[scope] = append(s.bySession[scope], sub)
}

func (s *Store) leaveLocked(sub *Subscription, scope string) {
	if _, joined := sub.scopes[scope]; joined {
		delete(sub.scopes, scope)
		unfileFrom(s.bySession, scope, sub)
	}
}

func appendMatching(out, bucket []*Subscription, msg *Message) []*Subscription {
	for _, sub := range bucket {
		if sub.filter.Matches(msg) {
			out = append(out, sub)
		}
	}
	return out
}

func unfileFrom(index map[string][]*Subscription, key string, sub *Subscription) {
	if bucket := without(index[key], sub); len(bucket) > 0 {
		index[key] = bucket
	} else {
		delete(index, key)
	}
}

// without removes sub from bucket in place (order is not kept).
func without(bucket []*Subscription, sub *Subscription) []*Subscription {
	i := slices.Index(bucket, sub)
	if i < 0 {
		return bucket
	}
	last := len(bucket) - 1
	bucket[i] = bucket[last]
	bucket[last] = nil
	return bucket[:last]
}

// InnermostScope returns the innermost key of joined that session lies
// within: session itself, else its nearest ":"-ancestor there. A consumer of
// a SubscribeScoped subscription finds with it the joined scope a message
// was routed for (a sub-scope's message reaches its parent's joiner).
func InnermostScope[V any](joined map[string]V, session string) (string, bool) {
	for i := len(session); i > 0; i-- {
		if i < len(session) && session[i] != ':' {
			continue
		}
		if _, ok := joined[session[:i]]; ok {
			return session[:i], true
		}
	}
	return "", false
}
