//! The seeded registry state every workload starts from, and the query
//! pool `registry_mixed` draws on. Everything here is a pure function of
//! `--seed`; the program under test only ever sees the generated text.
//!
//! Shape (ISSUE finding d): 4 tenants x 1 000 PEs keeps one tenant's
//! embedding matrices at 3-4 MB, so a semantic search is not a DRAM
//! bandwidth test, while 4 000 registrations make set-up ~0.6 s of real
//! program work instead of 2 ms of noise.

use laminar_registry::Registry;

pub const TENANTS: usize = 4;
pub const PES_PER_TENANT: usize = 1000;
/// ~1 % of a tenant's PEs carry a rare token in description and code.
pub const PLANTED_PER_TENANT: usize = 10;
pub const PASSWORD: &str = "password";
/// The registry's default hit limit (`DEFAULT_SEARCH_LIMIT`).
pub const HIT_LIMIT: usize = 25;

/// Description vocabulary. No word is a substring of another, of a PE
/// name, or of the text of the three registered workflows, so the text
/// search oracle (substring match, like the registry's) can count
/// matches from the generated corpus alone — pinned by a unit test.
pub const VOCAB: [&str; 32] = [
    "amber", "basalt", "cobalt", "dolomite", "ebony", "fjord", "garnet", "hazel", "indigo", "jasper", "kelp",
    "lagoon", "marble", "nickel", "onyx", "quartz", "russet", "sable", "tundra", "umbra", "velvet", "willow",
    "xenon", "yarrow", "zephyr", "bramble", "cedar", "dune", "elm", "flint", "gorse", "heath",
];

/// splitmix64: tiny, seedable, good enough to shuffle words.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn word(&mut self) -> &'static str {
        VOCAB[self.below(VOCAB.len())]
    }

    /// Three vocabulary words.
    pub fn description(&mut self) -> String {
        format!("{} {} {}", self.word(), self.word(), self.word())
    }

    /// A pronounceable token no vocabulary word contains.
    fn rare_token(&mut self) -> String {
        const CONSONANTS: &[u8] = b"bdfgkmnprstvz";
        const VOWELS: &[u8] = b"aeiou";
        let mut token = String::from("zq");
        for _ in 0..4 {
            token.push(CONSONANTS[self.below(CONSONANTS.len())] as char);
            token.push(VOWELS[self.below(VOWELS.len())] as char);
        }
        token
    }
}

pub struct PeSpec {
    pub name: String,
    pub source: String,
    pub description: String,
}

pub struct Tenant {
    pub user: String,
    pub pes: Vec<PeSpec>,
    /// `(index into pes, rare token)` of the planted PEs.
    pub planted: Vec<(usize, String)>,
}

pub struct Corpus {
    pub tenants: Vec<Tenant>,
}

fn pe_source(name: &str, k: usize, t: usize) -> String {
    format!("pe {name} : iterative {{ input x; output output; process {{ emit(x * {k} + {t}); }} }}")
}

fn planted_source(name: &str, token: &str, k: usize, t: usize) -> String {
    format!(
        "pe {name} : iterative {{ input x; output output; \
         process {{ let {token} = x * {k}; emit({token} + {t}); }} }}"
    )
}

impl Corpus {
    /// `salt` changes every PE's code without changing its shape, so a
    /// set-up repeated in one process cannot ride the process-wide
    /// compile cache the previous repetition filled.
    pub fn generate(seed: u64, salt: usize) -> Corpus {
        let mut rng = Rng::new(seed);
        let mut tokens = std::collections::BTreeSet::new();
        let tenants = (0..TENANTS)
            .map(|t| {
                let mut pes: Vec<PeSpec> = (0..PES_PER_TENANT)
                    .map(|i| {
                        let name = format!("Bench{t}Pe{i}");
                        let source = pe_source(&name, i % 7 + 1, t + TENANTS * salt);
                        PeSpec { name, source, description: rng.description() }
                    })
                    .collect();
                let mut planted = Vec::with_capacity(PLANTED_PER_TENANT);
                while planted.len() < PLANTED_PER_TENANT {
                    let i = rng.below(PES_PER_TENANT);
                    let token = rng.rare_token();
                    if planted.iter().any(|(p, _)| *p == i) || !tokens.insert(token.clone()) {
                        continue;
                    }
                    let pe = &mut pes[i];
                    pe.source = planted_source(&pe.name, &token, i % 7 + 1, t + TENANTS * salt);
                    pe.description = format!("{} {token}", pe.description);
                    planted.push((i, token));
                }
                Tenant { user: format!("bench{t}"), pes, planted }
            })
            .collect();
        Corpus { tenants }
    }

    /// Register every tenant and PE.
    pub fn register_into(&self, registry: &mut Registry) {
        for tenant in &self.tenants {
            registry.register_user(&tenant.user, PASSWORD).expect("register tenant");
            for pe in &tenant.pes {
                registry
                    .register_pe(&tenant.user, &pe.source, Some(&pe.description))
                    .expect("register corpus PE");
            }
        }
    }
}

/// A PE for a write pair: registered, then removed, so the corpus size
/// stays constant. Names are unique per `(salt, n)`.
pub fn fresh_pe(salt: usize, n: u64, rng: &mut Rng) -> PeSpec {
    let name = format!("Fresh{salt}x{n}");
    let source = pe_source(&name, rng.below(7) + 1, salt);
    PeSpec { name, source, description: rng.description() }
}

/// What a search must return, derivable from the corpus alone.
pub enum Expect {
    /// Hit #1 is this PE.
    Top(String),
    /// Exactly one hit: this PE.
    Only(String),
    /// Exactly `n` hits, each containing `word` in description or name.
    Matches { word: String, n: usize },
    /// A full page of hits in non-increasing score order.
    Ranked,
    /// No hit.
    Nothing,
}

pub struct Query {
    pub text: String,
    pub expect: Expect,
}

/// One tenant's queries per search mode, planted and ordinary mixed.
pub struct QueryPool {
    /// `pe` / `text`: cosine over description embeddings.
    pub semantic: Vec<Query>,
    /// `both` / `text`: normalised substring match.
    pub text: Vec<Query>,
    /// `pe` / `code`: cosine over code embeddings (code completion).
    pub code: Vec<Query>,
}

impl Tenant {
    fn text_matches(&self, word: &str) -> usize {
        self.pes
            .iter()
            .filter(|pe| pe.description.contains(word) || pe.name.to_lowercase().contains(word))
            .count()
    }

    pub fn query_pool(&self, rng: &mut Rng) -> QueryPool {
        let t = self.user.trim_start_matches("bench");
        let mut pool = QueryPool { semantic: Vec::new(), text: Vec::new(), code: Vec::new() };
        for (n, (i, token)) in self.planted.iter().enumerate() {
            let pe = &self.pes[*i];
            match n % 3 {
                0 => pool
                    .semantic
                    .push(Query { text: pe.description.clone(), expect: Expect::Top(pe.name.clone()) }),
                1 => pool.text.push(Query { text: token.clone(), expect: Expect::Only(pe.name.clone()) }),
                _ => pool.code.push(Query {
                    text: format!("let {token} = x * {};", i % 7 + 1),
                    expect: Expect::Top(pe.name.clone()),
                }),
            }
        }
        for _ in 0..12 {
            pool.semantic.push(Query { text: rng.description(), expect: Expect::Ranked });
        }
        for _ in 0..8 {
            let word = rng.word();
            let n = self.text_matches(word).min(HIT_LIMIT);
            pool.text.push(Query {
                text: word.to_string(),
                expect: Expect::Matches { word: word.to_string(), n },
            });
        }
        pool.text.push(Query { text: "zzz-none".to_string(), expect: Expect::Nothing });
        for k in 1..=5 {
            pool.code.push(Query { text: format!("emit(x * {k} + {t});"), expect: Expect::Ranked });
        }
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_corpus_and_another_seed_another() {
        let (a, b, c) = (Corpus::generate(17, 0), Corpus::generate(17, 0), Corpus::generate(18, 0));
        let text = |c: &Corpus| -> Vec<String> {
            c.tenants
                .iter()
                .flat_map(|t| t.pes.iter().map(|p| format!("{}|{}", p.source, p.description)))
                .collect()
        };
        assert_eq!(text(&a), text(&b));
        assert_ne!(text(&a), text(&c));
        let salted = Corpus::generate(17, 1);
        assert!(text(&a).iter().zip(text(&salted)).all(|(x, y)| *x != y), "salt must change every PE");
        assert_eq!(a.tenants.len(), TENANTS);
        assert!(a
            .tenants
            .iter()
            .all(|t| t.pes.len() == PES_PER_TENANT && t.planted.len() == PLANTED_PER_TENANT));
    }

    #[test]
    fn vocabulary_words_match_nothing_but_themselves() {
        let fixed: String = [
            laminar_workloads::isprime::SOURCE_SEQUENTIAL,
            laminar_workloads::streaming::SOURCE,
            laminar_workloads::sustained::SOURCE,
            "bench0pe999 fresh1x12 zzz-none",
        ]
        .concat()
        .to_lowercase();
        for (i, w) in VOCAB.iter().enumerate() {
            assert!(!fixed.contains(w), "'{w}' occurs in fixed text");
            for (j, other) in VOCAB.iter().enumerate() {
                assert!(i == j || !other.contains(w), "'{w}' is inside '{other}'");
            }
        }
    }

    #[test]
    fn planted_tokens_are_unique_and_land_in_description_and_code() {
        let corpus = Corpus::generate(3, 0);
        let mut seen = std::collections::BTreeSet::new();
        for tenant in &corpus.tenants {
            for (i, token) in &tenant.planted {
                assert!(seen.insert(token.clone()), "token {token} planted twice");
                assert!(tenant.pes[*i].description.ends_with(token.as_str()));
                assert!(tenant.pes[*i].source.contains(token.as_str()));
                assert_eq!(tenant.text_matches(token), 1);
            }
        }
    }

    #[test]
    fn every_pool_has_planted_and_ordinary_queries_without_a_slash() {
        let corpus = Corpus::generate(5, 0);
        let pool = corpus.tenants[1].query_pool(&mut Rng::new(5));
        for (queries, planted) in [(&pool.semantic, 4), (&pool.text, 3), (&pool.code, 3)] {
            let tops =
                queries.iter().filter(|q| matches!(q.expect, Expect::Top(_) | Expect::Only(_))).count();
            assert_eq!(tops, planted);
            assert!(queries.len() > planted);
            // The query is one URL path segment.
            assert!(queries.iter().all(|q| !q.text.contains('/')));
        }
        assert!(pool.text.iter().any(|q| matches!(q.expect, Expect::Nothing)));
    }
}
