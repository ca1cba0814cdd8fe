//! Reference matcher for `match_deep`, and the feasible arrival order
//! built with it.
//!
//! MPI matching rule: an arriving message completes the first posted
//! receive, in post order, whose (source, tag) pattern accepts it. All
//! `match_deep` traffic has one source, so only the tag is modelled.

/// For each arrival (a tag), the index of the posted receive it
/// completes, or `None` when it would land in the unexpected queue.
/// `posts[i]` is `Some(tag)` for an exact receive, `None` for `ANY_TAG`.
pub fn reference_match(posts: &[Option<u32>], arrivals: &[u32]) -> Vec<Option<usize>> {
    let mut taken = vec![false; posts.len()];
    arrivals
        .iter()
        .map(|&tag| {
            let hit = posts
                .iter()
                .enumerate()
                .position(|(i, p)| !taken[i] && p.is_none_or(|t| t == tag))?;
            taken[hit] = true;
            Some(hit)
        })
        .collect()
}

/// Reorder the seeded `order` (indices into `msg_tags`) as little as
/// needed so that every message finds a posted receive: an exact message
/// is held back until no unmatched wildcard posted before its own
/// receive could steal it. Wildcard receives are fed by messages whose
/// tag no exact receive accepts, so they never need holding back.
pub fn feasible_order(posts: &[Option<u32>], msg_tags: &[u32], order: &[usize]) -> Vec<usize> {
    // need[m]: wildcards posted before message m's own exact receive, all
    // of which must be consumed before m may arrive; None for a message
    // that feeds a wildcard.
    let mut wild_before_post = Vec::with_capacity(posts.len());
    let mut wilds = 0usize;
    for p in posts {
        wild_before_post.push(wilds);
        wilds += usize::from(p.is_none());
    }
    let need: Vec<Option<usize>> = msg_tags
        .iter()
        .map(|&tag| {
            posts
                .iter()
                .position(|p| *p == Some(tag))
                .map(|own| wild_before_post[own])
        })
        .collect();
    let mut out = Vec::with_capacity(order.len());
    let mut held: Vec<usize> = Vec::new();
    let mut wild_consumed = 0usize;
    for &m in order {
        match need[m] {
            Some(n) if n > wild_consumed => held.push(m),
            Some(_) => out.push(m),
            None => {
                out.push(m);
                wild_consumed += 1;
                held.retain(|&h| {
                    let ready = need[h].is_some_and(|n| n <= wild_consumed);
                    if ready {
                        out.push(h);
                    }
                    !ready
                });
            }
        }
    }
    assert!(held.is_empty(), "every wildcard has a feeding message");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_posted_receive_in_post_order_wins() {
        // posts: tag 5, ANY, tag 7, ANY
        let posts = [Some(5), None, Some(7), None];
        // 7 is stolen by the earlier wildcard; 5 goes to its own receive;
        // 9 takes the remaining wildcard; a second 9 finds only the exact
        // receive for 7 left and is unexpected.
        assert_eq!(
            reference_match(&posts, &[7, 5, 9, 9]),
            vec![Some(1), Some(0), Some(3), None]
        );
    }

    #[test]
    fn feasible_order_holds_back_exact_messages_behind_wildcards() {
        // posts: ANY, tag 1, ANY, tag 3; messages: 100 (wild), 1, 101 (wild), 3
        let posts = [None, Some(1), None, Some(3)];
        let tags = [100, 1, 101, 3];
        // seeded order wants 3 and 1 first: both must wait for wildcards
        let order = feasible_order(&posts, &tags, &[3, 1, 0, 2]);
        assert_eq!(order, vec![0, 1, 2, 3]);
        let arrivals: Vec<u32> = order.iter().map(|&m| tags[m]).collect();
        let matched = reference_match(&posts, &arrivals);
        assert!(matched.iter().all(|m| m.is_some()));
        // and every exact message reached its own receive
        assert_eq!(matched, vec![Some(0), Some(1), Some(2), Some(3)]);
    }
}
