package main

import (
	"bytes"
	"fmt"

	"sfccover/internal/persist"
	"sfccover/internal/subscription"
)

// answer is one covering query's outcome: which query it was (an index
// into the workload's query list), whether a cover was claimed, and the
// claimed cover's engine id.
type answer struct {
	query   int32
	covered bool
	id      uint64
}

// checkGenuine fails when a claimed cover is not a member of the
// population or does not cover its query. owner maps engine ids to
// population indexes.
func checkGenuine(a answer, queries, population []*subscription.Subscription, owner map[uint64]int) error {
	if !a.covered {
		return nil
	}
	p, ok := owner[a.id]
	if !ok {
		return fmt.Errorf("query %d: claimed cover id %d is not in the population", a.query, a.id)
	}
	if !population[p].Covers(queries[a.query]) {
		return fmt.Errorf("query %d: claimed cover %d (%v) does not cover %v", a.query, a.id, population[p], queries[a.query])
	}
	return nil
}

// checkWireAnswers checks query-wire's answers: each equals the
// in-process engine's answer to the same query (want is indexed by
// query) and each claimed cover is genuine.
func checkWireAnswers(got []answer, want []answer, queries, population []*subscription.Subscription, owner map[uint64]int) error {
	for i, a := range got {
		w := want[a.query]
		if a.covered != w.covered || a.id != w.id {
			return fmt.Errorf("answer %d (query %d): wire says covered=%v id=%d, engine says covered=%v id=%d",
				i, a.query, a.covered, a.id, w.covered, w.id)
		}
		if err := checkGenuine(a, queries, population, owner); err != nil {
			return err
		}
	}
	return nil
}

// checkLocalAnswers checks query-local's answers: every claimed cover
// is genuine.
func checkLocalAnswers(got []answer, queries, population []*subscription.Subscription, owner map[uint64]int) error {
	for _, a := range got {
		if err := checkGenuine(a, queries, population, owner); err != nil {
			return err
		}
	}
	return nil
}

// checkDeliveries compares each client's received events with those of
// the flooding reference overlay fed the same op sequence.
func checkDeliveries(got, want [][]subscription.Event) error {
	if len(got) != len(want) {
		return fmt.Errorf("deliveries: %d clients, reference has %d", len(got), len(want))
	}
	for c := range got {
		if len(got[c]) != len(want[c]) {
			return fmt.Errorf("client %d received %d events, flooding reference %d", c, len(got[c]), len(want[c]))
		}
		for i := range got[c] {
			if !eventsEqual(got[c][i], want[c][i]) {
				return fmt.Errorf("client %d delivery %d is %v, flooding reference %v", c, i, got[c][i], want[c][i])
			}
		}
	}
	return nil
}

func eventsEqual(a, b subscription.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkRecovered compares the per-link entries a reopened store
// recovered with the live state captured before shutdown.
func checkRecovered(live, recovered map[string][]persist.Entry) error {
	for link, want := range live {
		got := recovered[link]
		if len(got) != len(want) {
			return fmt.Errorf("link %q: recovered %d entries, live state had %d", link, len(got), len(want))
		}
		for i := range want {
			if got[i].SID != want[i].SID || !bytes.Equal(got[i].Payload, want[i].Payload) {
				return fmt.Errorf("link %q entry %d: recovered sid %d, live sid %d (or payloads differ)", link, i, got[i].SID, want[i].SID)
			}
		}
	}
	for link, got := range recovered {
		if _, ok := live[link]; !ok && len(got) > 0 {
			return fmt.Errorf("link %q: recovered %d entries of a link the live state did not have", link, len(got))
		}
	}
	return nil
}

// storeState captures every link's entries from a store.
func storeState(st *persist.Store) map[string][]persist.Entry {
	out := make(map[string][]persist.Entry)
	for _, link := range st.Links() {
		out[link] = st.Entries(link)
	}
	return out
}
