"""Indoor positioning from modulated light intensity.

A receiver with several tilted photodiode faces measures the signal
strength of ceiling lamps flashing at known frequencies; three
independent face readings of one lamp determine the receiver position
in closed form, refined by least squares.  The package also provides
frequency-domain lamp identification, classic trilateration for
comparison, magnetometer auto-calibration, and scenario-level
simulation, sensitivity, and coverage tooling.
"""

# The one version source: pyproject.toml reads it from here.
__version__ = "0.1.0"

from .compass import (
    AccelSample,
    AccelValidityError,
    EllipseFitError,
    EllipseParams,
    MagSample,
    calibrate_heading,
    fit_ellipse,
    pitch_roll_from_accel,
)
from .geom import (
    Aabb,
    Attitude,
    DegenerateGeometryError,
    Polyhedron,
    attitude_to_rotation,
    half_dodecahedron,
    line_of_sight,
    receiver_rotation,
    solve_frame_basis,
    tri_face_min_distance,
    visible_faces,
)
from .rss import (
    EmissionProfile,
    LampModel,
    ProfileError,
    make_profile,
    rss_model,
)
from .scenario import ScenarioFile, ScenarioFormatError, load_scenario, parse_scenario
from .signal import (
    OOK_FUNDAMENTAL,
    PeakReading,
    SampleTrace,
    WaveComponent,
    extract_amplitude,
    identify_lamps,
    synthesize_trace,
)
from .sim import (
    CoverageReport,
    ErrorStats,
    Fix,
    MeasurementBatch,
    NoiseSpec,
    ReceiverSpec,
    Scenario,
    coverage_analysis,
    greedy_min_lamps,
    locate,
    measure,
    oscillation_distance,
    run_static,
    run_trajectory,
    sensitivity_sweep,
)
from .solve import (
    SolveResult,
    STATUS_DEGENERATE,
    STATUS_NO_CONVERGE,
    STATUS_UNIQUE,
    fit_lamp_model,
    mflp_least_squares,
    solve_multi,
    to_world_position,
    trilaterate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
