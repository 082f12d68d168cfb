"""Event-camera theremin playground: spiking-flavored hand tracking,
graded-spike transport, and a fully simulated robot show."""

from .events import (
    EventStream,
    Hand,
    Resolution,
    Trajectory,
    decode_evt1,
    encode_evt1,
    frame_accumulate,
    frame_downsample,
    synth_hand_events,
    waving_trajectory,
)
from .harness import (
    RunReport,
    SimConfig,
    compute_rtf,
    load_config,
    power_ratio,
    protocol_bench,
    run_show,
    single_bit_fuzz,
)
from .neural_field import (
    Field,
    FieldParams,
    KernelParams,
    Peak,
    detect_peaks,
    field_step,
    make_kernel,
)
from .orchestrator import (
    ControllerState,
    Intention,
    Module,
    ShowState,
    control_signals,
    transition,
)
from .sigma_delta import GradedSpike, SdState, delta_encode, sigma_decode
from .theremin import (
    ControlPoint,
    PitchCalibration,
    PixelGeometry,
    Score,
    calibrate_pitch,
    hands_to_control,
    note_freq,
    parse_score,
    score_to_trajectory,
)
from .tracker import HandEstimate, HandLabel, HandPoint, HandTracker, TrackerConfig
from .transport import (
    ChannelConfig,
    SafeFrame,
    SafeReceiver,
    channel_transmit,
    raw_decode,
    raw_encode,
    safe_decode,
    safe_encode,
)

__version__ = "0.1.0"
