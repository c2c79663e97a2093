//! Block-level HDFS model: namenode metadata, replica placement, locality.
//!
//! The paper sets block size 16 MB on the Edison cluster and 64 MB on Dell
//! (64 MB on both for terasort) and replication 2 / 1 respectively, chosen
//! so both clusters see ≈95 % data-local map tasks. Placement follows
//! HDFS's default policy shape: first replica on a rotating "writer" node,
//! further replicas on distinct random nodes.

use edison_simcore::rng::SimRng;

/// A stored file: ordered blocks.
#[derive(Debug, Clone)]
pub struct HdfsFile {
    /// File name (diagnostics only).
    pub name: String,
    /// Block ids in order.
    pub blocks: Vec<usize>,
}

/// One block and its replica locations (node indices).
#[derive(Debug, Clone)]
pub struct Block {
    /// Bytes in this block (≤ block size; last block may be short).
    pub bytes: u64,
    /// Node indices holding a replica (first = primary).
    pub replicas: Vec<usize>,
}

/// The namenode: file → blocks → replicas.
#[derive(Debug, Clone)]
pub struct Namenode {
    files: Vec<HdfsFile>,
    blocks: Vec<Block>,
    datanodes: usize,
    replication: u32,
    block_bytes: u64,
    next_writer: usize,
}

impl Namenode {
    /// A namenode over `datanodes` nodes with the given replication factor
    /// and block size.
    pub fn new(datanodes: usize, replication: u32, block_bytes: u64) -> Self {
        assert!(datanodes >= 1 && replication >= 1 && block_bytes > 0);
        assert!(
            replication as usize <= datanodes,
            "replication {replication} exceeds datanodes {datanodes}"
        );
        Namenode {
            files: Vec::new(),
            blocks: Vec::new(),
            datanodes,
            replication,
            block_bytes,
            next_writer: 0,
        }
    }

    /// Block size, bytes.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Store a file of `bytes`, splitting into blocks and placing replicas.
    /// Returns the file index.
    pub fn put(&mut self, name: &str, bytes: u64, rng: &mut SimRng) -> usize {
        assert!(bytes > 0, "empty HDFS file");
        let mut blocks = Vec::new();
        let mut remaining = bytes;
        while remaining > 0 {
            let b = remaining.min(self.block_bytes);
            remaining -= b;
            let replicas = self.place(rng);
            self.blocks.push(Block { bytes: b, replicas });
            blocks.push(self.blocks.len() - 1);
        }
        self.files.push(HdfsFile { name: name.to_string(), blocks });
        self.files.len() - 1
    }

    /// HDFS default-policy-shaped placement: primary on the rotating
    /// writer, others on distinct random nodes.
    fn place(&mut self, rng: &mut SimRng) -> Vec<usize> {
        let primary = self.next_writer % self.datanodes;
        self.next_writer += 1;
        let mut replicas = vec![primary];
        while replicas.len() < self.replication as usize {
            #[expect(clippy::cast_possible_truncation, reason = "the draw is below datanodes, a usize")]
            let cand = rng.below(self.datanodes as u64) as usize;
            if !replicas.contains(&cand) {
                replicas.push(cand);
            }
        }
        replicas
    }

    /// A file's blocks.
    pub fn file_blocks(&self, file: usize) -> &[usize] {
        &self.files[file].blocks
    }

    /// A block by id.
    pub fn block(&self, id: usize) -> &Block {
        &self.blocks[id]
    }

    /// All block ids across all files in insertion order.
    pub fn all_blocks(&self) -> impl Iterator<Item = usize> + '_ {
        0..self.blocks.len()
    }

    /// True when `node` holds a replica of `block`.
    pub fn is_local(&self, block: usize, node: usize) -> bool {
        self.blocks[block].replicas.contains(&node)
    }

    /// A replica node for `block`, preferring `node` itself.
    pub fn replica_for(&self, block: usize, node: usize) -> usize {
        if self.is_local(block, node) {
            node
        } else {
            self.blocks[block].replicas[0]
        }
    }

    /// A replica node for `block` among nodes not down (`down[i]`, the
    /// engine's crash flags; nodes past its end count as down), preferring
    /// `node` itself. `None` when every replica is down — the block is
    /// unreadable and the read fails over to nothing (the fault layer's
    /// unrecoverable case).
    pub fn live_replica(&self, block: usize, node: usize, down: &[bool]) -> Option<usize> {
        let up = |n: usize| down.get(n).is_some_and(|&d| !d);
        if self.is_local(block, node) && up(node) {
            return Some(node);
        }
        self.blocks[block].replicas.iter().copied().find(|&r| up(r))
    }

    /// Bytes stored per node (replica-weighted) — the balance diagnostic.
    pub fn bytes_per_node(&self) -> Vec<u64> {
        let mut v = vec![0u64; self.datanodes];
        for b in &self.blocks {
            for &r in &b.replicas {
                v[r] += b.bytes;
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    #[test]
    fn files_split_into_blocks() {
        let mut nn = Namenode::new(35, 2, 16 * MB);
        let mut rng = SimRng::new(1);
        let f = nn.put("input-0", 40 * MB, &mut rng);
        let blocks = nn.file_blocks(f);
        assert_eq!(blocks.len(), 3);
        assert_eq!(nn.block(blocks[0]).bytes, 16 * MB);
        assert_eq!(nn.block(blocks[2]).bytes, 8 * MB);
    }

    #[test]
    fn replication_factor_is_respected() {
        let mut nn = Namenode::new(35, 2, 16 * MB);
        let mut rng = SimRng::new(2);
        nn.put("f", 160 * MB, &mut rng);
        for b in nn.all_blocks() {
            let block = nn.block(b);
            assert_eq!(block.replicas.len(), 2);
            assert_ne!(block.replicas[0], block.replicas[1]);
        }
    }

    #[test]
    fn placement_balances_primaries() {
        let mut nn = Namenode::new(10, 1, MB);
        let mut rng = SimRng::new(3);
        for i in 0..100 {
            nn.put(&format!("f{i}"), MB, &mut rng);
        }
        let per = nn.bytes_per_node();
        assert!(per.iter().all(|&b| b == 10 * MB), "{per:?}");
    }

    #[test]
    fn locality_queries() {
        let mut nn = Namenode::new(5, 2, MB);
        let mut rng = SimRng::new(4);
        nn.put("f", MB, &mut rng);
        let block = 0;
        let reps = nn.block(block).replicas.clone();
        for n in 0..5 {
            assert_eq!(nn.is_local(block, n), reps.contains(&n));
        }
        assert_eq!(nn.replica_for(block, reps[1]), reps[1]);
        let other = (0..5).find(|n| !reps.contains(n)).unwrap();
        assert_eq!(nn.replica_for(block, other), reps[0]);
    }

    #[test]
    fn live_replica_skips_down_nodes() {
        let mut nn = Namenode::new(5, 2, MB);
        let mut rng = SimRng::new(4);
        nn.put("f", MB, &mut rng);
        let block = 0;
        let reps = nn.block(block).replicas.clone();
        let other = (0..5).find(|n| !reps.contains(n)).unwrap();
        let mut down = vec![false; 5];
        assert_eq!(nn.live_replica(block, reps[1], &down), Some(reps[1]), "local first");
        assert_eq!(nn.live_replica(block, other, &down), Some(reps[0]), "then the primary");
        down[reps[0]] = true;
        assert_eq!(nn.live_replica(block, other, &down), Some(reps[1]), "a surviving replica");
        assert_eq!(nn.live_replica(block, reps[0], &down), Some(reps[1]), "a down reader reads remotely");
        down[reps[1]] = true;
        assert_eq!(nn.live_replica(block, other, &down), None, "every replica down");
        assert_eq!(nn.live_replica(block, other, &[]), None, "nodes past the flags count as down");
    }

    #[test]
    #[should_panic(expected = "replication")]
    fn replication_cannot_exceed_nodes() {
        Namenode::new(1, 2, MB);
    }
}
