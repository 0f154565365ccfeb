"""Scalar oracles of the forward RSS model, written independently of
``lightpos.rss``: one face at a time, in the world frame, with the
profile evaluated from its kind and parameters."""

import math

import numpy as np


def profile_at(profile, omega):
    """f(omega) of an emission profile, from its kind and parameters:
    cos(omega)**gamma or sum(params[j] * omega**j); vectorized."""
    omega = np.asarray(omega, dtype=float)
    if profile.kind == "cosine_power":
        return np.cos(omega) ** profile.params[0]
    return np.polynomial.polynomial.polyval(omega, profile.params)


def eval_rss(lamp, face_center, face_normal) -> float:
    """Model RSS on a face: k/d^3 * |n . (lamp - face)| * f(omega).

    Zero when the face is outside the lamp's forward hemisphere
    (omega >= pi/2).  The absolute value makes the result independent of
    the normal's sign.  omega is the atan2 of the cross and dot products
    of the face-to-lamp vector with the central ray, both accurate near
    the ray.
    """
    delta = lamp.position - np.asarray(face_center, dtype=float)
    d = math.sqrt(float(delta @ delta))
    if d < 1e-12:
        raise ValueError("face coincides with the lamp position")
    along = -float(delta @ lamp.central_ray)  # d cos(omega)
    if along <= 0.0:
        return 0.0
    across = float(np.linalg.norm(np.cross(delta, lamp.central_ray)))
    n = np.asarray(face_normal, dtype=float)
    n = n / np.linalg.norm(n)
    f = float(profile_at(lamp.profile, math.atan2(across, along)))
    return lamp.k / d**3 * abs(float(n @ delta)) * f
