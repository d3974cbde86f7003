"""Coded-caching delivery over partially connected helper networks.

Pipeline: generate a radius-limited topology, assign shared-cache profiles,
partition each profile's users into a minimum number of jointly servable
matchings, schedule zero-forcing multicast rounds, and measure delivery time
and sum-DoF.
"""

__version__ = "0.1.0"
