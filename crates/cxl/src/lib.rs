//! CXL interconnect and Type-3 memory device models.
//!
//! COAXIAL attaches every DDR channel behind a CXL link (paper §IV,
//! Fig. 3b). The model follows the paper's §V "CXL performance modeling":
//!
//! * each CXL **port** adds 12.5 ns of unloaded one-way latency
//!   (flit packing, encode/decode, packet processing — PLDA/Intel CXL 2.0
//!   controller numbers \[47\], \[51\]); a memory access crosses four ports
//!   (CPU egress, device ingress, device egress, CPU ingress) = 50 ns;
//! * the PCIe x8 bus serializes data at the **goodput** the paper derives
//!   after header overheads: 26 GB/s RX (device→CPU) and 13 GB/s TX
//!   (CPU→device) for a symmetric x8 channel, or 32/10 GB/s for the
//!   asymmetric 20-RX/12-TX-pin CXL-asym variant (§IV-D);
//! * the CXL controller keeps finite message queues in both directions, so
//!   queuing effects at the interface are captured (§V).
//!
//! [`CxlChannel`] is one link plus its Type-3 device (1 or 2 DDR channels
//! behind an unmodified DDR5 controller). [`CxlMemory`] aggregates several
//! channels into a [`coaxial_dram::MemoryBackend`] for the system model.

// No unsafe anywhere in this crate; keep it that way.
#![forbid(unsafe_code)]

pub mod channel;
pub mod config;
pub mod memory;

pub use channel::CxlChannel;
pub use config::CxlLinkConfig;
pub use memory::CxlMemory;
