//! Owner-computes placement, the rule the `dist` driver
//! (`super::state`) places tasks by. Pure: no I/O, no clock, no state
//! between calls. A DES replay of a `dist` run does not run it again:
//! it keeps the workers the run's records name
//! ([`crate::sim::Policy::Recorded`]).

use std::cmp::Reverse;

/// Owner-computes placement: which ready tasks to ship now, and where.
///
/// `ready` lists the dispatchable tasks in plan order, each with the
/// bytes of its inputs every worker already holds; `in_flight[w]` is
/// the number of `Run`s worker `w` has not answered; `alive[w]` says
/// whether it may be chosen at all. Pure and deterministic — equal
/// inputs give equal output, and nothing is remembered between calls.
///
/// 1. A task joins the backlog of the live worker holding the most
///    bytes of its inputs, **busy or not**; ties go to the shorter
///    backlog, then the lower id. Waiting for the owner is cheaper than
///    moving a block to whoever happens to be idle.
/// 2. Tasks nobody holds a byte of (first touches of driver-held seeds)
///    are dealt over the live workers in *contiguous runs* of plan
///    order, so the neighbours a pairwise reduction combines first are
///    born on the same worker.
/// 3. A worker with nothing in flight takes the head of its backlog.
///    One whose backlog is empty takes the *last* waiting task of the
///    longest backlog — the one its owner would have reached last.
///
/// Returns `(task, worker)` pairs, at most one per idle worker.
pub(super) fn place(
    ready: &[(usize, Vec<u64>)],
    in_flight: &[usize],
    alive: &[bool],
) -> Vec<(usize, usize)> {
    let live: Vec<usize> = (0..alive.len()).filter(|&w| alive[w]).collect();
    if live.is_empty() {
        return Vec::new();
    }
    let mut backlog: Vec<Vec<usize>> = vec![Vec::new(); alive.len()];
    let mut unowned = Vec::new();
    for (task, held) in ready {
        let owner = live
            .iter()
            .copied()
            .filter(|&w| held[w] > 0)
            .min_by_key(|&w| (Reverse(held[w]), in_flight[w] + backlog[w].len(), w));
        match owner {
            Some(w) => backlog[w].push(*task),
            None => unowned.push(*task),
        }
    }
    for (j, &w) in live.iter().enumerate() {
        let run = j * unowned.len() / live.len()..(j + 1) * unowned.len() / live.len();
        backlog[w].extend_from_slice(&unowned[run]);
        backlog[w].sort_unstable(); // back to plan order
    }
    let mut shipped = Vec::new();
    let mut starved = Vec::new();
    for &w in live.iter().filter(|&&w| in_flight[w] == 0) {
        if backlog[w].is_empty() {
            starved.push(w);
        } else {
            shipped.push((backlog[w].remove(0), w));
        }
    }
    for w in starved {
        let victim = live
            .iter()
            .copied()
            .min_by_key(|&v| (Reverse(backlog[v].len()), v))
            .expect("live is non-empty");
        if let Some(task) = backlog[victim].pop() {
            shipped.push((task, w));
        }
    }
    shipped
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `place` in lock-step rounds — every live worker finishes
    /// its task before the next round — and returns who ran what.
    fn drain(mut ready: Vec<(usize, Vec<u64>)>, alive: &[bool]) -> Vec<Vec<usize>> {
        let mut ran = vec![Vec::new(); alive.len()];
        while !ready.is_empty() {
            let shipped = place(&ready, &vec![0; alive.len()], alive);
            assert!(!shipped.is_empty(), "ready work but nothing shipped");
            for (t, w) in shipped {
                ran[w].push(t);
                ready.retain(|(r, _)| *r != t);
            }
        }
        ran
    }

    #[test]
    fn place_gives_a_task_to_its_owner_even_when_busy() {
        // Worker 0 holds task 5's input and is busy; worker 1 is idle
        // and has work of its own. Task 5 waits for its owner.
        let ready = vec![(5, vec![100, 0]), (6, vec![0, 50])];
        assert_eq!(place(&ready, &[1, 0], &[true, true]), vec![(6, 1)]);
        // Most bytes wins; a tie goes to the shorter backlog.
        let ready = vec![(0, vec![5, 0]), (1, vec![5, 5]), (2, vec![1, 9])];
        assert_eq!(
            place(&ready, &[0, 0], &[true, true]),
            vec![(0, 0), (1, 1)],
            "task 1 ties on bytes and joins worker 1's empty backlog"
        );
    }

    #[test]
    fn place_deals_unowned_tasks_in_contiguous_runs_over_live_workers() {
        let unowned = |n: usize| (0..n).map(|t| (t, vec![0, 0, 0])).collect::<Vec<_>>();
        let alive = [true, false, true];
        assert_eq!(place(&unowned(6), &[0, 0, 0], &alive), vec![(0, 0), (3, 2)]);
        assert_eq!(
            drain(unowned(6), &alive),
            vec![vec![0, 1, 2], vec![], vec![3, 4, 5]]
        );
        assert_eq!(
            drain(unowned(8), &[true, true, true]),
            vec![vec![0, 1], vec![2, 3, 4], vec![5, 6, 7]]
        );
    }

    #[test]
    fn place_lets_an_idle_worker_steal_only_the_tail_of_the_longest_backlog() {
        let ready = vec![
            (1, vec![9, 0, 0]),
            (2, vec![9, 0, 0]),
            (3, vec![9, 0, 0]),
            (4, vec![0, 9, 0]),
        ];
        // Workers 0 and 1 are busy; worker 2 holds nothing.
        assert_eq!(place(&ready, &[1, 1, 0], &[true; 3]), vec![(3, 2)]);
        // With work of its own it steals nothing.
        let mut own = ready.clone();
        own.push((7, vec![0, 0, 9]));
        assert_eq!(place(&own, &[1, 1, 0], &[true; 3]), vec![(7, 2)]);
        // Nobody idle: nothing ships.
        assert_eq!(place(&ready, &[1, 1, 1], &[true; 3]), vec![]);
    }

    #[test]
    fn place_never_chooses_a_dead_worker_and_is_deterministic() {
        // The only holder is dead: the task is dealt like an unowned one.
        let ready = vec![(0, vec![0, 77]), (1, vec![0, 77])];
        let alive = [true, false];
        assert_eq!(place(&ready, &[0, 0], &alive), vec![(0, 0)]);
        assert_eq!(drain(ready.clone(), &alive), vec![vec![0, 1], vec![]]);
        assert_eq!(place(&ready, &[0, 0], &[false, false]), vec![]);
        // Equal holdings and backlogs: the lower id, every time.
        let tie = vec![(0, vec![5, 5])];
        for _ in 0..3 {
            assert_eq!(place(&tie, &[0, 0], &[true, true]), vec![(0, 0)]);
        }
    }
}
