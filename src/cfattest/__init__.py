"""Control-flow attestation testbed.

Executes programs in a toy RISC-like ISA, measures their control flow
(branch filtering, runtime loop detection, loop path encoding, streaming
SHA-3-512 authenticator), and runs a signed challenge-response attestation
protocol able to detect loop-counter and code-pointer attacks, and the
non-control-data attacks that change a branch.
"""

from .isa import parse_program, cfg_json, Program
from .emulator import run, AttackSpec, Trace
from .branch_filter import filter_trace, detect_loops
from .loop_monitor import LoopMonitor, MonitorConfig, memory_bits
from .hash_engine import digest_pairs, simulate_absorb
from .attestation import (Challenge, Report, ProgramPath, measure,
                          prover_attest, verify, generate_keypair,
                          canonical_serialize, build_cfg, Cfg)

__version__ = "0.1.0"
