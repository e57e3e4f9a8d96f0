//! The independent answer oracle for win/move games.
//!
//! Retrograde analysis labels every position of a game graph: a position
//! with no move is lost; a position with a move to a lost position is won;
//! a position all of whose moves lead to won positions is lost; whatever is
//! left (positions that can only keep the play inside a cycle) is drawn.
//! Under the well-founded semantics of `winning(X) :- move(X, Y), not
//! winning(Y).` — and of its HiLog form, game by game — won is true, lost
//! is false and drawn is undefined.  The solver shares no code with the
//! engine.

use hilog_core::Truth;
use std::collections::BTreeSet;

/// Labels positions `0..nodes` of the game whose moves are `edges`
/// (duplicates are ignored).
pub fn solve(nodes: usize, edges: &BTreeSet<(usize, usize)>) -> Vec<Truth> {
    let mut predecessors = vec![Vec::new(); nodes];
    let mut open_moves = vec![0usize; nodes];
    for &(u, v) in edges {
        predecessors[v].push(u);
        open_moves[u] += 1;
    }
    let mut label: Vec<Option<Truth>> = vec![None; nodes];
    let mut queue: Vec<usize> = Vec::new();
    for (p, &moves) in open_moves.iter().enumerate() {
        if moves == 0 {
            label[p] = Some(Truth::False);
            queue.push(p);
        }
    }
    while let Some(p) = queue.pop() {
        let lost = label[p] == Some(Truth::False);
        for &q in &predecessors[p] {
            if label[q].is_some() {
                continue;
            }
            if lost {
                label[q] = Some(Truth::True);
                queue.push(q);
            } else {
                open_moves[q] -= 1;
                if open_moves[q] == 0 {
                    label[q] = Some(Truth::False);
                    queue.push(q);
                }
            }
        }
    }
    label
        .into_iter()
        .map(|l| l.unwrap_or(Truth::Undefined))
        .collect()
}

/// Whether the graph over `0..nodes` has a directed cycle.
pub fn has_cycle(nodes: usize, edges: &BTreeSet<(usize, usize)>) -> bool {
    let mut indegree = vec![0usize; nodes];
    let mut successors = vec![Vec::new(); nodes];
    for &(u, v) in edges {
        successors[u].push(v);
        indegree[v] += 1;
    }
    let mut ready: Vec<usize> = (0..nodes).filter(|&p| indegree[p] == 0).collect();
    let mut removed = 0;
    while let Some(p) = ready.pop() {
        removed += 1;
        for &q in &successors[p] {
            indegree[q] -= 1;
            if indegree[q] == 0 {
                ready.push(q);
            }
        }
    }
    removed < nodes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(list: &[(usize, usize)]) -> BTreeSet<(usize, usize)> {
        list.iter().copied().collect()
    }

    #[test]
    fn chain_alternates() {
        // p0 -> p1 -> p2: p2 has no move (lost), p1 wins, p0 loses.
        let labels = solve(3, &edges(&[(0, 1), (1, 2)]));
        assert_eq!(labels, vec![Truth::False, Truth::True, Truth::False]);
    }

    #[test]
    fn cycles_are_drawn_unless_an_exit_decides_them() {
        // p0 <-> p1 is a pure cycle: both drawn.  p2 -> p3 with p3 lost
        // decides p2, even though p2 also moves into the cycle.
        let labels = solve(4, &edges(&[(0, 1), (1, 0), (2, 0), (2, 3)]));
        assert_eq!(
            labels,
            vec![
                Truth::Undefined,
                Truth::Undefined,
                Truth::True,
                Truth::False
            ]
        );
        assert!(has_cycle(4, &edges(&[(0, 1), (1, 0)])));
        assert!(!has_cycle(3, &edges(&[(0, 1), (1, 2)])));
    }
}
