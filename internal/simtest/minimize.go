package simtest

// minimize shrinks a failing schedule to a locally minimal event list
// that still violates the same invariant, ddmin-style: try removing
// chunks of halving size, keep any removal that reproduces, and stop
// when no single event can be removed (or the run budget is spent —
// shrinking is best-effort, the seed always reproduces the original).
// Events resolve their random draws against live state, so a schedule
// stays executable after any subset of it is deleted.
func minimize(o Options, sched []Event, orig *Violation) (minimal []Event, trace []string, runs int) {
	const maxRuns = 250
	repro := func(cand []Event) ([]string, bool) {
		if runs >= maxRuns {
			return nil, false
		}
		runs++
		out, err := runSchedule(o, cand)
		if err != nil || out.violation == nil || out.violation.Invariant != orig.Invariant {
			return nil, false
		}
		return out.lines, true
	}
	cur := append([]Event(nil), sched...)
	for chunk := (len(cur) + 1) / 2; chunk >= 1; {
		removed := false
		for start := 0; start < len(cur); {
			end := min(start+chunk, len(cur))
			cand := make([]Event, 0, len(cur)-(end-start))
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[end:]...)
			if tr, ok := repro(cand); ok {
				// Keep scanning from the same offset: the window now holds
				// the events that followed the removed chunk.
				cur, trace, removed = cand, tr, true
			} else {
				start = end
			}
		}
		if !removed {
			if chunk == 1 {
				break
			}
			chunk = (chunk + 1) / 2
		}
	}
	return cur, trace, runs
}
