//! Per-rank communication accounting for the distributed machine model.

/// Communication counters for one simulated processor, in words
/// (one word = one `f64`).
///
/// In the paper's parallel model (Section II-C), communication consists of
/// *sends* and *receives* of individual values; the bandwidth cost of an
/// algorithm is the maximum over processors of `words_sent + words_received`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Words written to the network by this rank.
    pub words_sent: u64,
    /// Words read from the network by this rank.
    pub words_received: u64,
    /// Number of point-to-point messages sent (latency proxy; the paper
    /// ignores latency, but the counter is free to keep).
    pub messages_sent: u64,
}

impl CommStats {
    /// `sends + receives` for this rank — the per-processor bandwidth cost.
    pub fn total_words(&self) -> u64 {
        self.words_sent + self.words_received
    }
}

impl std::ops::Add for CommStats {
    type Output = CommStats;
    fn add(self, rhs: CommStats) -> CommStats {
        CommStats {
            words_sent: self.words_sent + rhs.words_sent,
            words_received: self.words_received + rhs.words_received,
            messages_sent: self.messages_sent + rhs.messages_sent,
        }
    }
}

/// Summary over all ranks of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommSummary {
    /// `max_p (sent_p + received_p)` — the quantity the paper's bounds govern.
    pub max_words: u64,
    /// `sum_p (sent_p + received_p)` (each word is counted once at the
    /// sender and once at the receiver).
    pub total_words: u64,
    /// Maximum words sent by any single rank.
    max_sent: u64,
    /// Maximum words received by any single rank.
    max_received: u64,
    /// Maximum messages sent by any single rank — the latency (alpha-cost)
    /// proxy. The paper ignores latency (Section II-C); the counter makes
    /// the trade-off of the bucket algorithms (bandwidth-optimal, `q-1`
    /// messages per collective) visible anyway.
    pub max_messages: u64,
    /// Total messages sent machine-wide.
    total_messages: u64,
}

impl CommSummary {
    /// Aggregates per-rank stats.
    pub fn from_ranks(stats: &[CommStats]) -> CommSummary {
        let mut s = CommSummary::default();
        for st in stats {
            s.max_words = s.max_words.max(st.total_words());
            s.total_words += st.total_words();
            s.max_sent = s.max_sent.max(st.words_sent);
            s.max_received = s.max_received.max(st.words_received);
            s.max_messages = s.max_messages.max(st.messages_sent);
            s.total_messages += st.messages_sent;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_aggregates() {
        let stats = [
            CommStats {
                words_sent: 5,
                words_received: 3,
                messages_sent: 2,
            },
            CommStats {
                words_sent: 1,
                words_received: 10,
                messages_sent: 1,
            },
        ];
        let s = CommSummary::from_ranks(&stats);
        assert_eq!(s.max_words, 11);
        assert_eq!(s.total_words, 19);
        assert_eq!(s.max_sent, 5);
        assert_eq!(s.max_received, 10);
        assert_eq!(s.max_messages, 2);
        assert_eq!(s.total_messages, 3);
    }

    #[test]
    fn add_is_componentwise() {
        let a = CommStats {
            words_sent: 1,
            words_received: 2,
            messages_sent: 3,
        };
        let b = a;
        let c = a + b;
        assert_eq!(c.words_sent, 2);
        assert_eq!(c.words_received, 4);
        assert_eq!(c.messages_sent, 6);
    }
}
