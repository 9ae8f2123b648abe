//! Seeded operation generators. Everything a workload sends — parameter
//! draws, the operation mix, the update stream — derives from `--seed`;
//! the program under test only ever sees generated rows and SQL text.

use std::sync::Arc;

use idf_ctrie::hash::mix64;
use idf_engine::types::Value;
use idf_snb::stream::{UpdateEvent, UpdateStream};
use idf_snb::SnbData;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The latency class an operation is reported under in the diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Single-row point lookups (SQ1, SQ4).
    Lookup,
    /// Multi-row backward-pointer chains (SQ2, `get_rows_chunk`).
    Chain,
    /// Index-powered joins (SQ3, SQ7).
    Join,
    /// Reads of the materialized view.
    View,
    /// Never-repeated SQL shapes.
    Adhoc,
    /// 256-key batched lookups.
    Batch,
    Projection,
    Scan,
    Range,
    Agg,
    Sq5,
    Sq6,
    Insert,
    Update,
    Delete,
}

impl Class {
    pub const ALL: [Class; 15] = [
        Class::Lookup,
        Class::Chain,
        Class::Join,
        Class::View,
        Class::Adhoc,
        Class::Batch,
        Class::Projection,
        Class::Scan,
        Class::Range,
        Class::Agg,
        Class::Sq5,
        Class::Sq6,
        Class::Insert,
        Class::Update,
        Class::Delete,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Lookup => "lookup",
            Class::Chain => "chain",
            Class::Join => "join",
            Class::View => "view",
            Class::Adhoc => "adhoc",
            Class::Batch => "batch",
            Class::Projection => "projection",
            Class::Scan => "scan",
            Class::Range => "range",
            Class::Agg => "agg",
            Class::Sq5 => "sq5",
            Class::Sq6 => "sq6",
            Class::Insert => "insert",
            Class::Update => "update",
            Class::Delete => "delete",
        }
    }

    pub fn is_write(self) -> bool {
        matches!(self, Class::Insert | Class::Update | Class::Delete)
    }
}

/// What an acknowledged write changed, for the client-side oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    Person { id: i64 },
    Knows { p1: i64, p2: i64 },
    Message { id: i64, creator: i64 },
    City { person: i64, city: i64 },
    Unfriend { p1: i64, p2: i64 },
}

/// One generated operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// One SQL read; `key` is the literal it was drawn with.
    Query { class: Class, sql: String, key: i64 },
    /// `get_rows_chunk(key)`.
    Lookup { key: i64 },
    /// `get_rows_chunk_batch(keys)`.
    LookupBatch { keys: Vec<i64> },
    /// `append_row` of one `knows` edge.
    Append { p1: i64, p2: i64, ts: i64 },
    /// One write, possibly several statements (a message goes into each
    /// of its indexes), acknowledged as a unit.
    Write {
        class: Class,
        stmts: Vec<String>,
        effect: Effect,
        /// Bytes of user data the statements carry.
        user_bytes: u64,
    },
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Query { class, .. } | Op::Write { class, .. } => *class,
            Op::Lookup { .. } => Class::Chain,
            Op::LookupBatch { .. } => Class::Batch,
            Op::Append { .. } => Class::Insert,
        }
    }
}

/// Id ranges of the generated dataset.
#[derive(Debug, Clone, Copy)]
pub struct Dims {
    pub persons: i64,
    pub messages: i64,
    pub forums: i64,
}

impl Dims {
    pub fn of(data: &SnbData) -> Dims {
        Dims {
            persons: data.max_person_id + 1,
            messages: data.max_message_id + 1,
            forums: data.config.forums as i64,
        }
    }
}

/// A distinct, reproducible RNG stream per (seed, role, thread).
pub fn stream_seed(seed: u64, role: u64, index: u64) -> u64 {
    mix64(mix64(seed) ^ (role << 32) ^ index)
}

/// Zipf-distributed ranks over `n` items by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n.max(1));
        let mut acc = 0.0;
        for rank in 1..=n.max(1) {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        for p in &mut cdf {
            *p /= acc;
        }
        Zipf { cdf }
    }

    /// A rank in `0..n`, rank 0 the most popular.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&p| p < u).min(self.cdf.len() - 1)
    }
}

pub const ZIPF_THETA: f64 = 0.99;

/// Skewed key draws: Zipf(0.99) ranks mapped onto keys so that the hot
/// keys are spread evenly over the chain-length distribution. Chain
/// lengths are heavy-tailed, and with a random mapping the one key that
/// takes a tenth of all draws would have a chain of 5 rows under one
/// seed and 500 under the next; here rank 0 is the key of median weight
/// and later ranks walk a lattice over the keys sorted by weight, so a
/// seed changes which keys are hot but not how long the hot chains are.
#[derive(Clone)]
pub struct ZipfKeys {
    zipf: Arc<Zipf>,
    keys: Arc<Vec<i64>>,
}

impl ZipfKeys {
    /// `weights[k]` is the chain length behind key `k`.
    pub fn stratified(weights: &[u32]) -> ZipfKeys {
        let n = weights.len().max(1);
        let mut by_weight: Vec<usize> = (0..weights.len()).collect();
        by_weight.sort_by_key(|&k| (weights[k], k));
        // A step near n/φ that is coprime with n visits every position
        // once and spreads consecutive ranks far apart.
        let mut step = ((n as f64 / 1.618_033_988_75) as usize).max(1);
        while gcd(step, n) != 1 {
            step -= 1;
        }
        let keys = (0..by_weight.len())
            .map(|rank| by_weight[(n / 2 + rank * step) % n] as i64)
            .collect();
        ZipfKeys {
            zipf: Arc::new(Zipf::new(n, ZIPF_THETA)),
            keys: Arc::new(keys),
        }
    }

    pub fn sample(&self, rng: &mut StdRng) -> i64 {
        self.keys.get(self.zipf.sample(rng)).copied().unwrap_or(0)
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Rows per value of an id column (`0..n`).
fn occurrences(chunk: &idf_engine::chunk::Chunk, col: usize, n: i64) -> Vec<u32> {
    let mut counts = vec![0u32; n.max(0) as usize];
    let column = chunk.column(col);
    for row in 0..chunk.len() {
        if let Some(slot) = column
            .value_at(row)
            .as_i64()
            .and_then(|id| counts.get_mut(id as usize))
        {
            *slot += 1;
        }
    }
    counts
}

/// The key spaces reads draw from, one per access path.
#[derive(Clone)]
pub struct Keys {
    pub dims: Dims,
    /// Persons, weighted by their `knows` chain (SQ1, SQ3, `get_rows`).
    pub persons_by_friends: ZipfKeys,
    /// Persons, weighted by the messages they created (SQ2, the view).
    pub persons_by_messages: ZipfKeys,
    /// Messages, weighted by their replies (SQ4, SQ7).
    pub messages_by_replies: ZipfKeys,
}

impl Keys {
    pub fn of(data: &SnbData) -> Keys {
        let dims = Dims::of(data);
        Keys {
            dims,
            persons_by_friends: ZipfKeys::stratified(&occurrences(&data.knows, 0, dims.persons)),
            persons_by_messages: ZipfKeys::stratified(&occurrences(&data.message, 4, dims.persons)),
            messages_by_replies: ZipfKeys::stratified(&occurrences(
                &data.message,
                6,
                dims.messages,
            )),
        }
    }
}

// The SNB short reads, with the same text as `idf_snb::queries` (which
// only exposes them bound to a session, and the wire needs the text).

pub fn sq1(person: i64) -> String {
    format!(
        "SELECT first_name, last_name, birthday, location_ip, browser_used, city_id, \
         creation_date FROM person WHERE id = {person}"
    )
}

pub fn sq2(person: i64) -> String {
    format!(
        "SELECT id, content, creation_date FROM message_by_creator WHERE creator_id = {person} \
         ORDER BY creation_date DESC, id DESC LIMIT 10"
    )
}

pub fn sq3(person: i64) -> String {
    format!(
        "SELECT p.id, p.first_name, p.last_name, k.creation_date \
         FROM knows k JOIN person p ON k.person2_id = p.id WHERE k.person1_id = {person} \
         ORDER BY k.creation_date DESC, p.id"
    )
}

pub fn sq4(message: i64) -> String {
    format!("SELECT creation_date, content FROM message WHERE id = {message}")
}

pub fn sq5(forum: i64) -> String {
    format!(
        "SELECT f.title, f.moderator_id, count(*) AS messages \
         FROM forum f JOIN message m ON m.forum_id = f.id WHERE f.id = {forum} \
         GROUP BY f.title, f.moderator_id"
    )
}

pub fn sq6(forum: i64) -> String {
    format!(
        "SELECT hm.person_id, hm.join_date FROM forum_hasmember hm WHERE hm.forum_id = {forum} \
         ORDER BY hm.join_date DESC, hm.person_id LIMIT 20"
    )
}

pub fn sq7(message: i64) -> String {
    format!(
        "SELECT r.id, r.content, r.creation_date, p.id, p.first_name, p.last_name \
         FROM message_by_reply r JOIN person p ON r.creator_id = p.id \
         WHERE r.reply_of_id = {message} ORDER BY r.creation_date DESC, r.id"
    )
}

/// The aggregate view `served-mixed` maintains, over the insert-only
/// `message` table (DML on a base table marks its views stale).
pub const VIEW_NAME: &str = "feed_counts";
pub const VIEW_QUERY: &str =
    "SELECT creator_id, count(*), max(creation_date) FROM message GROUP BY creator_id";

pub fn view_read(person: i64) -> String {
    format!("SELECT * FROM {VIEW_NAME} WHERE creator_id = {person}")
}

/// `served-read`: SQ1/SQ2/SQ3/SQ4/SQ7 at 35/15/15/25/10 %, Zipf keys.
pub struct ServedReadGen {
    rng: StdRng,
    keys: Keys,
}

impl ServedReadGen {
    pub fn new(keys: &Keys, seed: u64, thread: u64) -> ServedReadGen {
        ServedReadGen {
            rng: StdRng::seed_from_u64(stream_seed(seed, 1, thread)),
            keys: keys.clone(),
        }
    }

    pub fn next_op(&mut self) -> Op {
        let roll: u32 = self.rng.gen_range(0..100);
        let person = self.keys.persons_by_friends.sample(&mut self.rng);
        let author = self.keys.persons_by_messages.sample(&mut self.rng);
        let message = self.keys.messages_by_replies.sample(&mut self.rng);
        let (class, sql, key) = match roll {
            0..=34 => (Class::Lookup, sq1(person), person),
            35..=49 => (Class::Chain, sq2(author), author),
            50..=64 => (Class::Join, sq3(person), person),
            65..=89 => (Class::Lookup, sq4(message), message),
            _ => (Class::Join, sq7(message), message),
        };
        Op::Query { class, sql, key }
    }
}

/// Share of `embedded-lookup` keys that are not in the table.
pub const MISS_PERCENT: u32 = 5;
/// Every this-many-th lookup operation is a batched one.
pub const BATCH_EVERY: u64 = 16;
pub const BATCH_KEYS: usize = 256;

/// `embedded-lookup` reads: Zipf keys on `knows(person1_id)` with misses.
pub struct LookupGen {
    rng: StdRng,
    persons: ZipfKeys,
    dims: Dims,
    issued: u64,
}

impl LookupGen {
    pub fn new(keys: &Keys, seed: u64, thread: u64) -> LookupGen {
        LookupGen {
            rng: StdRng::seed_from_u64(stream_seed(seed, 2, thread)),
            persons: keys.persons_by_friends.clone(),
            dims: keys.dims,
            issued: 0,
        }
    }

    fn key(&mut self) -> i64 {
        if self.rng.gen_range(0..100u32) < MISS_PERCENT {
            // Ids past the person range are never inserted.
            self.dims.persons + self.rng.gen_range(0..self.dims.persons)
        } else {
            self.persons.sample(&mut self.rng)
        }
    }

    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        if self.issued.is_multiple_of(BATCH_EVERY) {
            Op::LookupBatch {
                keys: (0..BATCH_KEYS).map(|_| self.key()).collect(),
            }
        } else {
            Op::Lookup { key: self.key() }
        }
    }
}

/// `embedded-lookup` writes: new `knows` edges between existing persons,
/// uniform so no single chain grows without bound during a run.
pub struct AppendGen {
    rng: StdRng,
    dims: Dims,
    clock: i64,
}

impl AppendGen {
    pub fn new(dims: Dims, seed: u64) -> AppendGen {
        AppendGen {
            rng: StdRng::seed_from_u64(stream_seed(seed, 3, 0)),
            dims,
            clock: idf_snb::gen::EPOCH_MS + 366 * idf_snb::gen::DAY_MS,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let p1 = self.rng.gen_range(0..self.dims.persons);
        let p2 = (p1 + self.rng.gen_range(1..self.dims.persons.max(2))) % self.dims.persons;
        self.clock += 1;
        Op::Append {
            p1,
            p2,
            ts: self.clock,
        }
    }
}

/// `embedded-scan`: the operators that cannot use the index, in a fixed
/// rotation. The shapes' latencies differ by up to 100×, so a median over
/// an even mix would sit on the border between two shapes and flip with
/// noise; FIG2's range filter holds 6 of every 11 operations so that the
/// median is its latency whatever the order of the shapes.
pub struct ScanGen {
    rng: StdRng,
    dims: Dims,
    issued: u64,
}

const SCAN_CYCLE: [Class; 11] = [
    Class::Range,
    Class::Projection,
    Class::Range,
    Class::Sq5,
    Class::Range,
    Class::Scan,
    Class::Range,
    Class::Sq6,
    Class::Range,
    Class::Agg,
    Class::Range,
];

impl ScanGen {
    pub fn new(dims: Dims, seed: u64, thread: u64) -> ScanGen {
        ScanGen {
            rng: StdRng::seed_from_u64(stream_seed(seed, 4, thread)),
            dims,
            // Threads start at different points of the rotation.
            issued: thread * 3,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let class = SCAN_CYCLE[(self.issued % SCAN_CYCLE.len() as u64) as usize];
        self.issued += 1;
        let forum = self.rng.gen_range(0..self.dims.forums.max(1));
        let day = self.rng.gen_range(30..335i64);
        let (sql, key) = match class {
            Class::Projection => ("SELECT sum(person2_id) AS s FROM knows".to_string(), 0),
            Class::Scan => (
                "SELECT sum(person1_id) AS a, sum(person2_id) AS b, \
                 sum(CAST(creation_date AS BIGINT)) AS c, count(*) AS n FROM knows"
                    .to_string(),
                0,
            ),
            Class::Range => {
                let cutoff = idf_snb::gen::EPOCH_MS + day * idf_snb::gen::DAY_MS;
                (
                    format!("SELECT count(*) FROM knows WHERE creation_date > {cutoff}"),
                    cutoff,
                )
            }
            Class::Agg => (
                "SELECT person1_id, count(*) AS degree FROM knows GROUP BY person1_id".to_string(),
                0,
            ),
            Class::Sq5 => (sq5(forum), forum),
            _ => (sq6(forum), forum),
        };
        Op::Query { class, sql, key }
    }
}

/// `served-mixed` reads: SQ1–SQ4 and the view, plus 1 % statements whose
/// shape (not just literal) never repeats.
pub struct MixedReadGen {
    rng: StdRng,
    keys: Keys,
    thread: u64,
    adhoc: u64,
}

impl MixedReadGen {
    pub fn new(keys: &Keys, seed: u64, thread: u64) -> MixedReadGen {
        MixedReadGen {
            rng: StdRng::seed_from_u64(stream_seed(seed, 5, thread)),
            keys: keys.clone(),
            thread,
            adhoc: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let roll: u32 = self.rng.gen_range(0..100);
        let person = self.keys.persons_by_friends.sample(&mut self.rng);
        let author = self.keys.persons_by_messages.sample(&mut self.rng);
        let message = self.keys.messages_by_replies.sample(&mut self.rng);
        let (class, sql, key) = match roll {
            0..=29 => (Class::Lookup, sq1(person), person),
            30..=44 => (Class::Chain, sq2(author), author),
            45..=59 => (Class::Join, sq3(person), person),
            60..=84 => (Class::Lookup, sq4(message), message),
            85..=98 => (Class::View, view_read(author), author),
            _ => {
                self.adhoc += 1;
                let tag = format!("t{}_{}", self.thread, self.adhoc);
                (
                    Class::Adhoc,
                    format!(
                        "SELECT first_name AS f_{tag}, city_id + {n} AS c_{tag} \
                         FROM person WHERE id = {person}",
                        n = self.adhoc
                    ),
                    person,
                )
            }
        };
        Op::Query { class, sql, key }
    }
}

fn sql_literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Utf8(s) => format!("'{}'", s.replace('\'', "''")),
        other => other
            .as_i64()
            .map_or_else(|| other.to_string(), |i| i.to_string()),
    }
}

fn insert_sql(table: &str, rows: &[&[Value]]) -> String {
    let tuples: Vec<String> = rows
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(sql_literal).collect();
            format!("({})", cells.join(", "))
        })
        .collect();
    format!("INSERT INTO {table} VALUES {}", tuples.join(", "))
}

/// Bytes of user data in one value (what `mem_amp` and the WAL ratio
/// are measured against).
pub fn value_bytes(v: &Value) -> u64 {
    match v {
        Value::Null => 0,
        Value::Boolean(_) => 1,
        Value::Int32(_) => 4,
        Value::Int64(_) | Value::Float64(_) | Value::Timestamp(_) => 8,
        Value::Utf8(s) => s.len() as u64,
    }
}

pub fn row_bytes(row: &[Value]) -> u64 {
    row.iter().map(value_bytes).sum()
}

/// `served-mixed` writes: the seeded update stream as `INSERT`s (80 %),
/// `UPDATE person` (10 %) and `DELETE FROM knows` (10 %). With several
/// writers each owns a disjoint slice of the new-id space and of the
/// keys it updates and deletes.
pub struct MixedWriteGen {
    rng: StdRng,
    stream: UpdateStream,
    dims: Dims,
    writer: i64,
    writers: i64,
    /// Initial edges this writer may delete, in draw order.
    victims: Vec<(i64, i64)>,
}

impl MixedWriteGen {
    pub fn new(data: &SnbData, seed: u64, writer: u64, writers: u64) -> MixedWriteGen {
        let dims = Dims::of(data);
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, 6, writer));
        // A seeded sample of distinct initial edges owned by this writer.
        let knows = &data.knows;
        let mut victims = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let wanted = 50_000.min(knows.len() / (2 * writers.max(1) as usize));
        let mut tries = 0;
        while victims.len() < wanted && tries < wanted * 20 {
            tries += 1;
            let row = rng.gen_range(0..knows.len());
            let p1 = knows.value_at(0, row).as_i64().unwrap_or(0);
            let p2 = knows.value_at(1, row).as_i64().unwrap_or(0);
            if p1 % writers.max(1) as i64 == writer as i64 && seen.insert((p1, p2)) {
                victims.push((p1, p2));
            }
        }
        victims.reverse();
        MixedWriteGen {
            rng,
            stream: UpdateStream::new(data, stream_seed(seed, 7, writer)),
            dims,
            writer: writer as i64,
            writers: writers.max(1) as i64,
            victims,
        }
    }

    /// Move an id the stream minted past the initial range into this
    /// writer's slice, so concurrent writers never mint the same id.
    fn own(&self, id: i64, initial: i64) -> i64 {
        if id < initial {
            id
        } else {
            initial + (id - initial) * self.writers + self.writer
        }
    }

    fn own_cell(&self, v: &mut Value, initial: i64) {
        if let Value::Int64(id) = v {
            *id = self.own(*id, initial);
        }
    }

    pub fn next_op(&mut self) -> Op {
        let roll: u32 = self.rng.gen_range(0..100);
        if roll < 10 {
            let person = self.rng.gen_range(0..self.dims.persons / self.writers) * self.writers
                + self.writer;
            let city = self.rng.gen_range(1000..2000i64);
            return Op::Write {
                class: Class::Update,
                stmts: vec![format!(
                    "UPDATE person SET city_id = {city} WHERE id = {person}"
                )],
                effect: Effect::City { person, city },
                user_bytes: 8,
            };
        }
        if roll < 20 {
            if let Some((p1, p2)) = self.victims.pop() {
                return Op::Write {
                    class: Class::Delete,
                    stmts: vec![format!(
                        "DELETE FROM knows WHERE person1_id = {p1} AND person2_id = {p2}"
                    )],
                    effect: Effect::Unfriend { p1, p2 },
                    user_bytes: 0,
                };
            }
        }
        let (persons, messages) = (self.dims.persons, self.dims.messages);
        match self.stream.next_event() {
            UpdateEvent::AddPerson(mut row) => {
                self.own_cell(&mut row[0], persons);
                let id = row[0].as_i64().unwrap_or(0);
                Op::Write {
                    class: Class::Insert,
                    user_bytes: row_bytes(&row),
                    stmts: vec![insert_sql("person", &[&row])],
                    effect: Effect::Person { id },
                }
            }
            UpdateEvent::AddKnows(mut fwd, mut bwd) => {
                for row in [&mut fwd, &mut bwd] {
                    self.own_cell(&mut row[0], persons);
                    self.own_cell(&mut row[1], persons);
                }
                let (p1, p2) = (fwd[0].as_i64().unwrap_or(0), fwd[1].as_i64().unwrap_or(0));
                Op::Write {
                    class: Class::Insert,
                    user_bytes: row_bytes(&fwd) + row_bytes(&bwd),
                    stmts: vec![insert_sql("knows", &[&fwd, &bwd])],
                    effect: Effect::Knows { p1, p2 },
                }
            }
            UpdateEvent::AddMessage(mut row) => {
                self.own_cell(&mut row[0], messages);
                self.own_cell(&mut row[4], persons);
                self.own_cell(&mut row[6], messages);
                let id = row[0].as_i64().unwrap_or(0);
                let creator = row[4].as_i64().unwrap_or(0);
                Op::Write {
                    class: Class::Insert,
                    user_bytes: row_bytes(&row),
                    stmts: vec![
                        insert_sql("message", &[&row]),
                        insert_sql("message_by_creator", &[&row]),
                    ],
                    effect: Effect::Message { id, creator },
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idf_snb::{generate, SnbConfig};

    /// The first `n` operations of every generator a seed drives, as text.
    fn operation_list(seed: u64, n: usize) -> String {
        let data = generate(SnbConfig::with_scale(0.05).with_seed(seed)).unwrap();
        let keys = Keys::of(&data);
        let dims = keys.dims;
        let mut out = String::new();
        let mut read = ServedReadGen::new(&keys, seed, 0);
        let mut lookup = LookupGen::new(&keys, seed, 0);
        let mut append = AppendGen::new(dims, seed);
        let mut scan = ScanGen::new(dims, seed, 0);
        let mut mixed_read = MixedReadGen::new(&keys, seed, 0);
        let mut mixed_write = MixedWriteGen::new(&data, seed, 0, 1);
        for _ in 0..n {
            for op in [
                read.next_op(),
                lookup.next_op(),
                append.next_op(),
                scan.next_op(),
                mixed_read.next_op(),
                mixed_write.next_op(),
            ] {
                out.push_str(&format!("{op:?}\n"));
            }
        }
        out
    }

    #[test]
    fn one_seed_gives_byte_identical_operation_lists() {
        let a = operation_list(20190630, 300);
        let b = operation_list(20190630, 300);
        assert_eq!(a.as_bytes(), b.as_bytes());
        let c = operation_list(20190701, 300);
        assert_ne!(a.as_bytes(), c.as_bytes());
    }

    fn small_keys() -> Keys {
        Keys::of(&generate(SnbConfig::with_scale(0.5).with_seed(11)).unwrap())
    }

    #[test]
    fn threads_of_one_seed_draw_different_streams() {
        let keys = small_keys();
        let mut a = ServedReadGen::new(&keys, 1, 0);
        let mut b = ServedReadGen::new(&keys, 1, 1);
        let ops_a: Vec<Op> = (0..50).map(|_| a.next_op()).collect();
        let ops_b: Vec<Op> = (0..50).map(|_| b.next_op()).collect();
        assert_ne!(ops_a, ops_b);
    }

    #[test]
    fn zipf_is_skewed_and_the_key_mapping_is_a_stratified_bijection() {
        let mut rng = StdRng::seed_from_u64(3);
        let zipf = Zipf::new(1000, ZIPF_THETA);
        let mut top = 0;
        for _ in 0..10_000 {
            let r = zipf.sample(&mut rng);
            assert!(r < 1000);
            if r < 10 {
                top += 1;
            }
        }
        // Zipf(0.99) over 1000 items puts ~39 % of draws on the top ten.
        assert!((3000..5000).contains(&top), "top-ten draws: {top}");
        // Weights 0..1000 in key order: the weight of a key is the key.
        let weights: Vec<u32> = (0..1000).collect();
        let keys = ZipfKeys::stratified(&weights);
        let images: std::collections::HashSet<i64> = keys.keys.iter().copied().collect();
        assert_eq!(images.len(), 1000, "every key has exactly one rank");
        assert_eq!(keys.keys[0], 500, "the hottest key has the median weight");
        // The ten hottest keys cover the weight range, not one end of it.
        let top: Vec<i64> = keys.keys[..10].to_vec();
        assert!(
            top.iter().any(|&k| k < 250) && top.iter().any(|&k| k >= 750),
            "{top:?}"
        );
        let mean = top.iter().sum::<i64>() as f64 / 10.0;
        assert!((350.0..650.0).contains(&mean), "{top:?}");
    }

    #[test]
    fn mixes_match_their_declared_shares() {
        let keys = small_keys();
        let dims = keys.dims;
        let mut gen = ServedReadGen::new(&keys, 9, 0);
        let mut sq1_count = 0;
        for _ in 0..10_000 {
            if let Op::Query { sql, .. } = gen.next_op() {
                if sql.contains("FROM person WHERE id") {
                    sq1_count += 1;
                }
            }
        }
        assert!((3200..3800).contains(&sq1_count), "SQ1 share: {sq1_count}");
        let mut lookups = LookupGen::new(&keys, 9, 0);
        let (mut misses, mut singles, mut batches) = (0, 0, 0);
        for _ in 0..16_000 {
            match lookups.next_op() {
                Op::Lookup { key } => {
                    singles += 1;
                    if key >= dims.persons {
                        misses += 1;
                    }
                }
                Op::LookupBatch { keys } => {
                    assert_eq!(keys.len(), BATCH_KEYS);
                    batches += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(batches, 1000);
        assert!(
            (600..900).contains(&misses),
            "misses: {misses} of {singles}"
        );
    }

    #[test]
    fn writers_mint_disjoint_ids_and_touch_disjoint_keys() {
        let data = generate(SnbConfig::with_scale(0.05).with_seed(5)).unwrap();
        let mut minted = std::collections::HashSet::new();
        for writer in 0..2u64 {
            let mut gen = MixedWriteGen::new(&data, 5, writer, 2);
            for _ in 0..400 {
                let Op::Write { effect, stmts, .. } = gen.next_op() else {
                    panic!("writer produced a non-write");
                };
                assert!(!stmts.is_empty());
                match effect {
                    Effect::Person { id } => assert!(minted.insert(("p", id))),
                    Effect::Message { id, .. } => assert!(minted.insert(("m", id))),
                    Effect::City { person, .. } => assert_eq!(person % 2, writer as i64),
                    Effect::Unfriend { p1, .. } => assert_eq!(p1 % 2, writer as i64),
                    Effect::Knows { .. } => {}
                }
            }
        }
    }

    #[test]
    fn literals_round_trip_quotes_and_nulls() {
        assert_eq!(sql_literal(&Value::Utf8("it's".into())), "'it''s'");
        assert_eq!(sql_literal(&Value::Null), "NULL");
        assert_eq!(sql_literal(&Value::Timestamp(12)), "12");
        assert_eq!(sql_literal(&Value::Int32(-3)), "-3");
        assert_eq!(
            row_bytes(&[Value::Int64(1), Value::Utf8("abc".into()), Value::Null]),
            11
        );
    }
}
